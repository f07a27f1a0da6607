"""Dynamic lock-order / race detector for the threaded protocol paths.

Lockdep-style checking, scaled to this repo: every hot lock in the
system (the frontend pending-swap lock, the WAL buffer lock) is created
through :func:`make_lock`.  When checking is off — the default — that
returns a plain ``threading.Lock`` and costs nothing.  When checking is
on (``REPRO_RACECHECK=1`` in the environment, or :func:`activate` /
:func:`checking` from a test) it returns a :class:`TrackedLock` that
reports every acquire/release to the process-wide :class:`RaceChecker`,
which

* records per-thread **acquisition edges** between lock *roles*
  ("while holding A, acquired B") and fails the run when the resulting
  lock-order graph gains a cycle — the classic potential-deadlock
  signature, caught even when the interleaving that would actually
  deadlock never happens;
* checks **guarded shared state**: code paths that mutate registered
  state call :meth:`RaceChecker.access`, and an access with the owning
  lock not held by the current thread is recorded as a violation.

Locks are identified by *role* (e.g. ``"frontend-flush"``, ``"wal"``),
not by instance — two WAL objects share the ``"wal"`` node, exactly like
lockdep lock classes.  That deliberately over-approximates: an ordering
that is safe only because two instances are never shared across threads
still gets flagged, which is the conservative answer we want for a
codebase growing toward shared-nothing servers.

Violations are *recorded*, not raised, at detection time (raising from
inside ``acquire`` would corrupt the protocol under test); tests and
the ``REPRO_RACECHECK=1`` harness call :meth:`RaceChecker.assert_clean`
at the end of the run.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Set, Tuple

__all__ = [
    "RACECHECK_ENV",
    "RaceChecker",
    "RaceCheckError",
    "TrackedLock",
    "activate",
    "active_checker",
    "checking",
    "deactivate",
    "make_lock",
]

RACECHECK_ENV = "REPRO_RACECHECK"


class RaceCheckError(AssertionError):
    """Raised by :meth:`RaceChecker.assert_clean` when violations exist.

    Subclasses ``AssertionError`` so a failing stress run reads as a
    test failure, with the full violation report as the message.
    """


class TrackedLock:
    """A ``threading.Lock`` that reports acquire/release to a checker.

    Duck-types the small surface the repo uses (``acquire``,
    ``release``, context manager, ``locked``) so it can replace a plain
    lock anywhere one is created through :func:`make_lock`.
    """

    __slots__ = ("role", "_lock", "_checker")

    def __init__(self, role: str, checker: "RaceChecker") -> None:
        self.role = role
        self._lock = threading.Lock()
        self._checker = checker

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._lock.acquire(blocking, timeout)
        if got:
            self._checker._on_acquire(self.role)
        return got

    def release(self) -> None:
        self._checker._on_release(self.role)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TrackedLock({self.role!r})"


class RaceChecker:
    """Process-wide collector of lock-order edges and guarded accesses.

    Thread-safe: the edge graph and violation lists are protected by an
    internal (untracked) mutex; the per-thread held-lock stack lives in
    ``threading.local`` and needs no locking.
    """

    def __init__(self) -> None:
        # role -> set of roles acquired while holding it.
        self._edges: Dict[str, Set[str]] = {}
        # state name -> owning lock role.
        self._guards: Dict[str, str] = {}
        self._tls = threading.local()
        self._mu = threading.Lock()
        #: Cycle records: (new_edge, cycle_path) tuples, human-readable.
        self.lock_order_violations: List[str] = []
        #: Unguarded accesses: human-readable records.
        self.unguarded_accesses: List[str] = []
        #: Total acquisitions observed (proof the instrumentation ran).
        self.acquisitions = 0

    # -- per-thread held stack -----------------------------------------

    def _held(self) -> List[str]:
        stack = getattr(self._tls, "held", None)
        if stack is None:
            stack = []
            self._tls.held = stack
        return stack

    def holds(self, role: str) -> bool:
        """True when the *current thread* holds a lock with this role."""
        return role in self._held()

    # -- lock lifecycle -------------------------------------------------

    def lock(self, role: str) -> TrackedLock:
        """Create a tracked lock participating in order checking."""
        return TrackedLock(role, self)

    def _on_acquire(self, role: str) -> None:
        held = self._held()
        with self._mu:
            self.acquisitions += 1
            for prior in held:
                if prior == role:
                    continue
                targets = self._edges.setdefault(prior, set())
                if role in targets:
                    continue
                targets.add(role)
                # New edge prior -> role: a path role ~> prior closes a
                # cycle in the order graph.
                path = self._find_path(role, prior)
                if path is not None:
                    cycle = " -> ".join(path + [role])
                    self.lock_order_violations.append(
                        f"lock-order cycle: acquired {role!r} while "
                        f"holding {prior!r}, but the reverse order "
                        f"exists: {cycle}"
                    )
        held.append(role)

    def _on_release(self, role: str) -> None:
        held = self._held()
        # Remove the innermost occurrence; non-LIFO release is legal
        # for threading.Lock and must not corrupt the stack.
        for i in range(len(held) - 1, -1, -1):
            if held[i] == role:
                del held[i]
                return

    def _find_path(self, src: str, dst: str) -> Optional[List[str]]:
        """BFS path src ~> dst in the edge graph (caller holds _mu)."""
        if src == dst:
            return [src]
        frontier: List[Tuple[str, List[str]]] = [(src, [src])]
        seen = {src}
        while frontier:
            node, path = frontier.pop(0)
            for nxt in self._edges.get(node, ()):
                if nxt == dst:
                    return path + [nxt]
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append((nxt, path + [nxt]))
        return None

    # -- guarded shared state -------------------------------------------

    def register_state(self, state: str, lock_role: str) -> None:
        """Declare that ``state`` may only be mutated under ``lock_role``."""
        with self._mu:
            self._guards[state] = lock_role

    def access(self, state: str) -> None:
        """Record an access to registered state; flag it if unguarded."""
        lock_role = self._guards.get(state)
        if lock_role is None or lock_role in self._held():
            return
        with self._mu:
            self.unguarded_accesses.append(
                f"unguarded access: {state!r} touched by "
                f"{threading.current_thread().name} without {lock_role!r}"
            )

    # -- reporting -------------------------------------------------------

    @property
    def violations(self) -> List[str]:
        return self.lock_order_violations + self.unguarded_accesses

    def report(self) -> str:
        lines = [
            f"racecheck: {self.acquisitions} acquisitions, "
            f"{len(self._edges)} lock roles with outgoing edges, "
            f"{len(self.violations)} violation(s)"
        ]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)

    def assert_clean(self) -> None:
        """Raise :class:`RaceCheckError` if any violation was recorded."""
        if self.violations:
            raise RaceCheckError(self.report())


# -- process-wide activation --------------------------------------------
#
# One checker per process, switched on either by the environment
# (REPRO_RACECHECK=1, read once on first use so hot paths never re-read
# os.environ) or programmatically by tests via activate()/checking().

_active: Optional[RaceChecker] = None
_env_checked = False
_activation_mu = threading.Lock()


def active_checker() -> Optional[RaceChecker]:
    """The process-wide checker, or ``None`` when checking is off."""
    global _active, _env_checked
    if _active is None and not _env_checked:
        with _activation_mu:
            if not _env_checked:
                if os.environ.get(RACECHECK_ENV, "") not in ("", "0"):
                    _active = RaceChecker()
                _env_checked = True
    return _active


def activate(checker: Optional[RaceChecker] = None) -> RaceChecker:
    """Switch checking on (tests); returns the installed checker."""
    global _active, _env_checked
    with _activation_mu:
        _active = checker or RaceChecker()
        _env_checked = True
        return _active


def deactivate() -> None:
    """Switch checking off (tests)."""
    global _active
    with _activation_mu:
        _active = None


class checking:
    """Context manager: run a block under a fresh activated checker.

    >>> with checking() as rc:
    ...     run_workload()
    ... # assert_clean runs on clean exit; prior state is restored.
    """

    def __init__(self, checker: Optional[RaceChecker] = None) -> None:
        self.checker = checker or RaceChecker()
        self._prior: Optional[RaceChecker] = None

    def __enter__(self) -> RaceChecker:
        global _active
        self._prior = _active
        activate(self.checker)
        return self.checker

    def __exit__(self, exc_type: object, *exc: object) -> None:
        global _active
        with _activation_mu:
            _active = self._prior
        if exc_type is None:
            self.checker.assert_clean()


def make_lock(role: str):
    """A lock for ``role``: tracked when checking is on, plain when off.

    The single creation point every instrumented lock in the repo goes
    through — ``threading.Lock()`` cost and semantics when checking is
    off, full order/guard tracking when on.
    """
    checker = active_checker()
    if checker is None:
        return threading.Lock()
    return checker.lock(role)
