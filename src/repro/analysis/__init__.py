"""Correctness tooling: invariant lint passes + dynamic race detection.

This package machine-checks the invariants the repo has historically
lost to silent bugs — the MetaSys idea (PAPERS.md) of a small
cross-layer checking interface that every layer is audited against on
every run, instead of a per-bug pile of regression pins.

Two halves:

* :mod:`repro.analysis.lint` — AST-based static passes, run by
  ``python -m repro.analysis`` / ``make lint`` over the whole ``src/``
  tree (first leg of ``make check``, and CI).
* :mod:`repro.analysis.racecheck` — an opt-in (``REPRO_RACECHECK=1``)
  dynamic lock-order/race detector wrapping the real locks in the
  frontend and the WAL.

Invariants
==========

Each pass descends from a bug this repo actually shipped and then
pinned; the linter turns the pin into a standing rule:

``no-builtin-hash``
    Routing/sharding never uses builtin ``hash()`` — it is salted per
    process, so placement derived from it disagrees across restarts.
    Use :func:`repro.core.sharding.stable_hash`.  Descends from PR 3
    (cross-partition placement broke under ``PYTHONHASHSEED``
    variation).  ``__hash__`` implementations are exempt; the two
    intentional numeric-identity uses in ``core/sharding.py`` carry
    reviewed skips.

``deterministic-protocol``
    No wall-clock reads, randomness, or set-iteration order inside the
    decision paths (``core/``, ``percolator/``, ``ssi/``): WAL replay
    and the engine-equivalence suites assume a batch re-decides
    identically.  Descends from PR 4 (timestamp reuse across recovery)
    and the PR 3 hash-order pins.  ``time.sleep``/``monotonic``/
    ``perf_counter`` stay legal — latency modeling is policy, not
    decision input.

``guarded-by``
    Hot shared state declared with ``# guarded-by: <lock>`` (the
    frontend ``_pending`` batch, the WAL buffer) mutates only under its
    owning lock.  Descends from PR 5 (a thread-pool partition executor,
    since removed, made per-shard rounds genuinely concurrent).
    Single-writer paths carry reviewed skips.

``future-discipline``
    A ``CommitFuture`` settles only through the blessed resolve
    paths — no direct ``._result``/``._done`` stores.  Descends
    from PR 6 (a crashed flush left futures in permanent
    ``DecisionPending``).

``no-bare-assert``
    Protocol code raises typed :mod:`repro.core.errors`
    (:class:`~repro.core.errors.InvariantViolation`), never bare
    ``assert`` — asserts vanish under ``python -O``, which is exactly
    when a production deployment would run.

``no-gc-tuning``
    The serving packages (``core/``, ``server/``, ``wal/``, ``coord/``,
    ``percolator/``, ``ssi/``, ``mvcc/``) never touch ``gc.disable``,
    ``gc.enable``, ``gc.freeze``, ``gc.unfreeze``, ``gc.set_threshold``
    or ``gc.collect`` — called, bound to a name, imported, or reached
    through ``import gc as x`` / ``getattr(gc, "...")``.  Descends from PR 13: the cyclic collector was a
    third of a decision's wall time because the WAL retained two tracked
    objects per decision; the fix was to retain none, which holds in any
    process that embeds the stack — a collector setting would not.
    ``repro/bench/`` and ``repro/analysis/`` are out of scope: measuring
    tools may pause or force the collector around what they measure.

The dynamic half (``racecheck``) covers what static scoping cannot: it
records per-thread lock acquisition *edges* across the frontend flush
and WAL buffer locks, fails on lock-order cycles (potential deadlock
even if the bad interleaving never fired), and flags any registered
shared-state access performed with no lock held.  The
``tests/analysis/`` stress test drives concurrent session threads
through a frontend over a partitioned oracle and a WAL, and through an
HA failover, under the checker.
"""

from repro.analysis.lint import ALL_PASSES, LintFinding, lint_file, lint_source, lint_tree
from repro.analysis.racecheck import (
    RaceChecker,
    RaceCheckError,
    TrackedLock,
    active_checker,
    checking,
    make_lock,
)

__all__ = [
    "ALL_PASSES",
    "LintFinding",
    "lint_file",
    "lint_source",
    "lint_tree",
    "RaceChecker",
    "RaceCheckError",
    "TrackedLock",
    "active_checker",
    "checking",
    "make_lock",
]
