"""AST-based invariant linter: the repo-specific passes behind ``make lint``.

Each pass encodes an invariant this codebase has already been burned by
(see the package docstring for the catalogue).  The engine is
deliberately small: parse each module once, hand the tree + comment
annotations to every pass in scope, collect :class:`LintFinding`
records, and apply line-level suppressions.

Annotations (ordinary comments, read by the engine):

``# lint: skip=<pass>[,<pass>...] [-- reason]``
    Suppress the named pass(es) on this line.  ``skip=all`` suppresses
    every pass.  Every suppression in ``src/`` should carry a
    ``-- reason``: it marks a *reviewed* exception, not an escape hatch.

``# guarded-by: <lock>``
    On an attribute-assignment line (``self._pending = []``): declares
    that the assigned attribute is hot shared state owned by ``<lock>``.
    The ``guarded-by`` pass then requires every mutation of that
    attribute in the module to sit lexically inside ``with <lock>:``.

``# guarded-by: <attr> -> <lock>``
    Standalone form for state declared elsewhere (e.g. another
    object's ``_pending`` list owned by this module's lock).

Pass scoping: ``deterministic-protocol`` only audits the decision-path
packages (``core/``, ``percolator/``, ``ssi/``) and ``no-gc-tuning`` the
serving packages (those three plus ``server/``, ``wal/``, ``coord/``,
``mvcc/``); the other passes run over the whole tree.  ``time.sleep``/``time.monotonic``/
``time.perf_counter`` are allowed everywhere — latency modeling and
cadence clocks are policy inputs, not decision inputs; ``time.time()``
and friends in a decision path are what made batches non-replayable.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "LintFinding",
    "ModuleContext",
    "ALL_PASSES",
    "lint_file",
    "lint_source",
    "lint_tree",
]

_SKIP_RE = re.compile(r"#\s*lint:\s*skip=([A-Za-z0-9_,\-]+|all)")
_GUARD_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][\w]*(?:\s*->\s*[A-Za-z_][\w]*)?)")

#: Method names whose call mutates the receiver (dict/list/set surface
#: the hot-state containers actually use).
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "update",
        "add",
        "setdefault",
        "sort",
    }
)


@dataclass(frozen=True, order=True)
class LintFinding:
    """One violation: where, which pass, and what to do instead."""

    path: str
    line: int
    col: int
    pass_name: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.pass_name}] {self.message}"


@dataclass
class ModuleContext:
    """Parsed module plus the comment annotations the passes consume."""

    path: str
    relpath: str
    source: str
    tree: ast.Module
    #: line -> pass names suppressed there ({"all"} suppresses all).
    skips: Dict[int, Set[str]] = field(default_factory=dict)
    #: comment-only lines (a skip here also covers the statement below).
    comment_lines: Set[int] = field(default_factory=set)
    #: guarded attr -> owning lock name (module-scoped).
    guards: Dict[str, str] = field(default_factory=dict)
    #: lines carrying a guarded-by declaration (exempt from the pass).
    guard_decl_lines: Set[int] = field(default_factory=set)

    @classmethod
    def parse(cls, path: str, source: str, relpath: Optional[str] = None) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        ctx = cls(path=path, relpath=relpath or os.path.basename(path), source=source, tree=tree)
        trailing_locks: Dict[int, str] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            if line.lstrip().startswith("#"):
                ctx.comment_lines.add(lineno)
            m = _SKIP_RE.search(line)
            if m:
                ctx.skips.setdefault(lineno, set()).update(
                    name.strip() for name in m.group(1).split(",")
                )
            g = _GUARD_RE.search(line)
            if g:
                spec = g.group(1)
                ctx.guard_decl_lines.add(lineno)
                if "->" in spec:
                    attr, lock = (part.strip() for part in spec.split("->", 1))
                    ctx.guards[attr] = lock
                else:
                    trailing_locks[lineno] = spec.strip()
        if trailing_locks:
            # Resolve trailing declarations: the attribute assigned on
            # that line is the declared state.
            for node in ast.walk(tree):
                if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.lineno in trailing_locks:
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        if isinstance(target, ast.Attribute):
                            ctx.guards[target.attr] = trailing_locks[node.lineno]
        return ctx

    def suppressed(self, lineno: int, pass_name: str) -> bool:
        """True when a skip covers this line.

        A ``# lint: skip=`` annotation suppresses on its own line, or —
        when written as a standalone comment — on the first statement
        below its contiguous comment block.
        """

        def matches(line: int) -> bool:
            names = self.skips.get(line)
            return bool(names) and (pass_name in names or "all" in names)

        if matches(lineno):
            return True
        line = lineno - 1
        while line in self.comment_lines:
            if matches(line):
                return True
            line -= 1
        return False


# ----------------------------------------------------------------------
# Pass implementations.  Each yields raw findings; the engine applies
# suppression afterwards so `# lint: skip=` works uniformly.
# ----------------------------------------------------------------------


def _walk_with_func_stack(
    node: ast.AST, stack: Tuple[str, ...] = ()
) -> Iterator[Tuple[ast.AST, Tuple[str, ...]]]:
    """ast.walk that also yields the enclosing-function-name stack."""
    yield node, stack
    child_stack = stack
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        child_stack = stack + (node.name,)
    for child in ast.iter_child_nodes(node):
        yield from _walk_with_func_stack(child, child_stack)


def check_no_builtin_hash(ctx: ModuleContext) -> Iterator[LintFinding]:
    """Routing/sharding must never use the salted builtin ``hash()``.

    PR 3's bug class: builtin ``hash`` is salted per-process, so any
    placement derived from it disagrees across processes and restarts.
    ``__hash__`` implementations are exempt — delegating to builtin
    hashing for in-process containers is exactly what they are for.
    """
    for node, funcs in _walk_with_func_stack(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "hash"
            and "__hash__" not in funcs
        ):
            yield LintFinding(
                ctx.path,
                node.lineno,
                node.col_offset,
                "no-builtin-hash",
                "builtin hash() is process-salted; use "
                "repro.core.sharding.stable_hash for any placement/routing",
            )


_WALLCLOCK_TIME_ATTRS = frozenset({"time", "time_ns"})
_WALLCLOCK_DT_ATTRS = frozenset({"now", "utcnow", "today"})


def check_deterministic_protocol(ctx: ModuleContext) -> Iterator[LintFinding]:
    """Decision paths must be deterministic and replayable.

    WAL replay and the cross-engine equivalence suites both assume a
    batch re-decides identically: no wall-clock reads, no randomness,
    no iteration order borrowed from a hash-salted ``set``.
    """

    def finding(node: ast.AST, message: str) -> LintFinding:
        return LintFinding(
            ctx.path, node.lineno, node.col_offset, "deterministic-protocol", message
        )

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            base = func.value
            if isinstance(base, ast.Name):
                if base.id == "time" and func.attr in _WALLCLOCK_TIME_ATTRS:
                    yield finding(
                        node,
                        f"time.{func.attr}() in a decision path breaks replay; "
                        "take timestamps from the oracle/TSO",
                    )
                elif base.id == "datetime" and func.attr in _WALLCLOCK_DT_ATTRS:
                    yield finding(
                        node,
                        f"datetime.{func.attr}() is a wall-clock read; decision "
                        "paths must be replayable",
                    )
                elif base.id == "os" and func.attr == "urandom":
                    yield finding(node, "os.urandom() in a decision path is nondeterministic")
                elif base.id == "random":
                    yield finding(
                        node,
                        f"random.{func.attr}() in a decision path is nondeterministic; "
                        "inject seeded randomness from the workload layer",
                    )
                elif base.id == "uuid" and func.attr in ("uuid1", "uuid4"):
                    yield finding(node, f"uuid.{func.attr}() is nondeterministic")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            mod = node.module if isinstance(node, ast.ImportFrom) else None
            names = [alias.name for alias in node.names]
            if mod == "random" or "random" in names:
                yield finding(
                    node,
                    "importing random into a decision-path module; seeded "
                    "randomness belongs to the workload layer",
                )
        else:
            iters: List[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if isinstance(it, ast.Set) or (
                    isinstance(it, ast.Call)
                    and isinstance(it.func, ast.Name)
                    and it.func.id in ("set", "frozenset")
                ):
                    yield finding(
                        it,
                        "iterating a set directly is hash-order-dependent; "
                        "sort it (the repo convention: `for x in sorted(...)`)",
                    )


class _GuardedByVisitor:
    """Checks mutations of declared hot state against the owning lock.

    Tracks the lexical ``with`` stack and the function scope chain so
    one-hop local bindings resolve: ``lock = self._locks[pid]``
    followed by ``with lock:`` counts as holding ``_locks``, and
    ``buf = self._pending`` followed by ``buf.append(x)`` counts as
    mutating ``_pending``.
    """

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.findings: List[LintFinding] = []
        # Scope chain of name->value-expr assignment maps (module first,
        # innermost function last); closures see enclosing bindings.
        self._scopes: List[Dict[str, ast.expr]] = []
        # Source text of every lexically-enclosing with-item.
        self._withs: List[str] = []

    # -- name/alias resolution ------------------------------------------

    def _lookup(self, name: str) -> Optional[ast.expr]:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    def _guarded_attr_of(self, node: ast.expr) -> Optional[str]:
        """The declared attr this expression denotes, if any.

        Direct (``x._last_commit``) or one local hop
        (``lc = x._last_commit``; ``lc``).
        """
        if isinstance(node, ast.Attribute) and node.attr in self.ctx.guards:
            return node.attr
        if isinstance(node, ast.Name):
            bound = self._lookup(node.id)
            if (
                bound is not None
                and isinstance(bound, ast.Attribute)
                and bound.attr in self.ctx.guards
            ):
                return bound.attr
        return None

    def _holding(self, lock: str) -> bool:
        pattern = re.compile(rf"\b{re.escape(lock)}\b")
        for text in self._withs:
            if pattern.search(text):
                return True
        return False

    def _with_item_text(self, expr: ast.expr) -> str:
        text = ast.unparse(expr)
        if isinstance(expr, ast.Name):
            bound = self._lookup(expr.id)
            if bound is not None:
                text += " = " + ast.unparse(bound)
        return text

    # -- scope bookkeeping ----------------------------------------------

    def _collect_assignments(self, func: ast.AST) -> Dict[str, ast.expr]:
        """Name->value for simple assigns in this function (not nested)."""
        bindings: Dict[str, ast.expr] = {}

        def scan(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                if isinstance(child, ast.Assign) and len(child.targets) == 1:
                    target = child.targets[0]
                    if isinstance(target, ast.Name):
                        bindings[target.id] = child.value
                scan(child)

        scan(func)
        return bindings

    # -- mutation detection ---------------------------------------------

    def _flag(self, node: ast.AST, attr: str) -> None:
        if node.lineno in self.ctx.guard_decl_lines:
            return
        lock = self.ctx.guards[attr]
        if self._holding(lock):
            return
        self.findings.append(
            LintFinding(
                self.ctx.path,
                node.lineno,
                node.col_offset,
                "guarded-by",
                f"mutation of {attr!r} outside `with {lock}:` "
                f"(declared `# guarded-by: {lock}`)",
            )
        )

    def _check_target(self, target: ast.expr, stmt: ast.AST) -> None:
        if isinstance(target, ast.Attribute) and target.attr in self.ctx.guards:
            self._flag(stmt, target.attr)
        elif isinstance(target, ast.Subscript):
            attr = self._guarded_attr_of(target.value)
            if attr is not None:
                self._flag(stmt, attr)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_target(elt, stmt)

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            attr = self._guarded_attr_of(func.value)
            if attr is not None:
                self._flag(node, attr)
        elif isinstance(func, ast.Name):
            # A name bound to a mutator of guarded state:
            # mu = self._pending.append; ...; mu(x)
            bound = self._lookup(func.id)
            if (
                bound is not None
                and isinstance(bound, ast.Attribute)
                and bound.attr in _MUTATORS
            ):
                attr = self._guarded_attr_of(bound.value)
                if attr is not None:
                    self._flag(node, attr)

    # -- traversal -------------------------------------------------------

    def run(self) -> List[LintFinding]:
        if not self.ctx.guards:
            return []
        self._scopes.append(self._collect_assignments(self.ctx.tree))
        self._visit_body(self.ctx.tree)
        return self.findings

    def _visit_body(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._scopes.append(self._collect_assignments(node))
            self._visit_body(node)
            self._scopes.pop()
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            texts = [self._with_item_text(item.context_expr) for item in node.items]
            self._withs.extend(texts)
            self._visit_body(node)
            del self._withs[len(self._withs) - len(texts) :]
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._check_target(target, node)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            self._check_target(node.target, node)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._check_target(target, node)
        elif isinstance(node, ast.Call):
            self._check_call(node)
        self._visit_body(node)


def check_guarded_by(ctx: ModuleContext) -> Iterator[LintFinding]:
    """Declared hot state mutates only under its owning lock."""
    yield from _GuardedByVisitor(ctx).run()


_FUTURE_SLOTS = frozenset({"_result", "_done"})


def check_future_discipline(ctx: ModuleContext) -> Iterator[LintFinding]:
    """Futures settle only through the blessed resolve paths.

    PR 6's bug class: a crashed flush left ``CommitFuture``s in
    permanent ``DecisionPending`` because settlement state was poked
    directly from a path that could die midway.  Direct stores to
    ``._result``/``._done`` are therefore flagged everywhere; the
    handful of blessed settle sites carry reviewed
    ``# lint: skip=future-discipline`` annotations.
    """
    for node in ast.walk(ctx.tree):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr in _FUTURE_SLOTS:
                yield LintFinding(
                    ctx.path,
                    node.lineno,
                    node.col_offset,
                    "future-discipline",
                    f"direct write to `.{target.attr}`: futures settle only "
                    "through the blessed resolve paths (annotate reviewed "
                    "settle sites with `# lint: skip=future-discipline`)",
                )


def check_no_bare_assert(ctx: ModuleContext) -> Iterator[LintFinding]:
    """Protocol code never relies on ``assert`` — it vanishes under -O."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assert):
            yield LintFinding(
                ctx.path,
                node.lineno,
                node.col_offset,
                "no-bare-assert",
                "bare assert vanishes under `python -O`; raise "
                "repro.core.errors.InvariantViolation (or a more specific "
                "typed error) instead",
            )


_GC_TUNING = frozenset(
    {"disable", "enable", "freeze", "unfreeze", "set_threshold", "collect"}
)


def check_no_gc_tuning(ctx: ModuleContext) -> Iterator[LintFinding]:
    """The serving packages never touch the cyclic collector's policy.

    PR 13's rule: collector policy is process-global and belongs to
    whoever embeds the stack (the benchmark driver sets its own).  The
    stack took a third of a decision's time back from the collector by
    *owning fewer tracked objects*; a ``gc.disable()`` or
    ``gc.set_threshold()`` in a serving module would buy the same number
    in this process and nothing in the next one.
    """

    def finding(node: ast.AST, name: str) -> LintFinding:
        return LintFinding(
            ctx.path,
            node.lineno,
            node.col_offset,
            "no-gc-tuning",
            f"gc.{name} in a serving package: collector policy belongs to "
            "the embedding process; keep per-decision state untracked instead",
        )

    # Every local name the module binds to ``gc`` (``import gc as _gc``).
    modules = {
        alias.asname or alias.name
        for node in ast.walk(ctx.tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "gc"
    }

    def is_gc(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id in modules

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Attribute):
            # any use of the attribute, called or not: ``off = gc.disable``
            if is_gc(node.value) and node.attr in _GC_TUNING:
                yield finding(node, node.attr)
        elif isinstance(node, ast.Call):
            # getattr(gc, "disable")
            args = node.args
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(args) >= 2
                and is_gc(args[0])
                and isinstance(args[1], ast.Constant)
                and args[1].value in _GC_TUNING
            ):
                yield finding(node, args[1].value)
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            for alias in node.names:
                if alias.name in _GC_TUNING:
                    yield finding(node, alias.name)


@dataclass(frozen=True)
class LintPass:
    name: str
    check: object  # Callable[[ModuleContext], Iterator[LintFinding]]
    #: relpath prefixes (POSIX, relative to the repro package) this pass
    #: audits; ("",) means the whole tree.
    scope: Tuple[str, ...] = ("",)

    def in_scope(self, relpath: str) -> bool:
        return any(relpath.startswith(prefix) for prefix in self.scope)


ALL_PASSES: Tuple[LintPass, ...] = (
    LintPass("no-builtin-hash", check_no_builtin_hash),
    LintPass(
        "deterministic-protocol",
        check_deterministic_protocol,
        scope=("core/", "percolator/", "ssi/"),
    ),
    LintPass("guarded-by", check_guarded_by),
    LintPass("future-discipline", check_future_discipline),
    LintPass("no-bare-assert", check_no_bare_assert),
    LintPass(
        "no-gc-tuning",
        check_no_gc_tuning,
        scope=("core/", "server/", "wal/", "coord/", "percolator/", "ssi/", "mvcc/"),
    ),
)

_PASS_BY_NAME = {p.name: p for p in ALL_PASSES}


def _run_passes(
    ctx: ModuleContext, passes: Sequence[LintPass], scoped: bool
) -> List[LintFinding]:
    findings: List[LintFinding] = []
    for lint_pass in passes:
        if scoped and not lint_pass.in_scope(ctx.relpath):
            continue
        for finding in lint_pass.check(ctx):
            if not ctx.suppressed(finding.line, finding.pass_name):
                findings.append(finding)
    return sorted(findings)


def _resolve_passes(passes: Optional[Sequence[object]]) -> Sequence[LintPass]:
    if passes is None:
        return ALL_PASSES
    resolved: List[LintPass] = []
    for p in passes:
        resolved.append(_PASS_BY_NAME[p] if isinstance(p, str) else p)  # type: ignore[arg-type]
    return resolved


def lint_source(
    source: str,
    path: str = "<string>",
    passes: Optional[Sequence[object]] = None,
    relpath: Optional[str] = None,
) -> List[LintFinding]:
    """Lint source text with the given passes (all of them by default).

    Path scoping is *not* applied — callers linting a single blob get
    exactly the passes they asked for (this is what the fixture tests
    use).
    """
    ctx = ModuleContext.parse(path, source, relpath=relpath)
    return _run_passes(ctx, _resolve_passes(passes), scoped=False)


def lint_file(
    path: str,
    passes: Optional[Sequence[object]] = None,
) -> List[LintFinding]:
    """Lint one file with the given passes (unscoped; see lint_source)."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    return lint_source(source, path=path, passes=passes)


def lint_tree(root: Optional[str] = None) -> List[LintFinding]:
    """Lint every ``*.py`` under ``root`` with path-scoped passes.

    ``root`` defaults to the installed ``repro`` package source tree —
    what ``python -m repro.analysis`` and ``make lint`` audit.
    """
    if root is None:
        import repro

        root = os.path.dirname(os.path.abspath(repro.__file__))
    findings: List[LintFinding] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            relpath = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
            ctx = ModuleContext.parse(path, source, relpath=relpath)
            findings.extend(_run_passes(ctx, ALL_PASSES, scoped=True))
    return sorted(findings)
