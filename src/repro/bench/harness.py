"""Execution harness: run workload specs against a real transaction stack.

The discrete-event simulator measures *time*; this harness measures
*logic*: it executes :class:`~repro.workload.generator.TransactionSpec`
streams against a real :class:`~repro.core.transaction.TransactionManager`
(over an :class:`~repro.mvcc.store.MVCCStore` or
:class:`~repro.hbase.cluster.HBaseCluster`), interleaving the operations
of many concurrently-open transactions so genuine conflicts arise.  It
is what the concurrency experiments (E9–E11), the integration tests, and
the property-based tests drive.

The interleaving is a random merge of per-transaction operation streams,
seeded and reproducible — a logical concurrency model, not wall-clock
threading, so results are deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.errors import AbortException
from repro.core.transaction import Transaction, TransactionManager
from repro.workload.generator import TransactionSpec


@dataclass
class HarnessResult:
    """Aggregate outcome of an interleaved execution."""

    committed: int = 0
    aborted: int = 0
    read_only_committed: int = 0
    abort_reasons: Dict[str, int] = field(default_factory=dict)
    operations: int = 0

    @property
    def total(self) -> int:
        return self.committed + self.aborted

    @property
    def abort_rate(self) -> float:
        return self.aborted / self.total if self.total else 0.0

    def record_abort(self, reason: str) -> None:
        self.aborted += 1
        self.abort_reasons[reason] = self.abort_reasons.get(reason, 0) + 1

    def merge(self, other: "HarnessResult") -> "HarnessResult":
        merged = HarnessResult(
            committed=self.committed + other.committed,
            aborted=self.aborted + other.aborted,
            read_only_committed=self.read_only_committed + other.read_only_committed,
            operations=self.operations + other.operations,
        )
        for reasons in (self.abort_reasons, other.abort_reasons):
            for reason, count in reasons.items():
                merged.abort_reasons[reason] = (
                    merged.abort_reasons.get(reason, 0) + count
                )
        return merged


class _OpenTxn:
    """A transaction mid-flight in the interleaver."""

    __slots__ = ("txn", "spec", "next_op", "value_counter")

    def __init__(self, txn: Transaction, spec: TransactionSpec) -> None:
        self.txn = txn
        self.spec = spec
        self.next_op = 0


def run_interleaved(
    manager: TransactionManager,
    specs: Sequence[TransactionSpec],
    concurrency: int = 8,
    seed: int = 0,
    value_of: Optional[Callable[[int, int], object]] = None,
) -> HarnessResult:
    """Execute ``specs`` with up to ``concurrency`` open transactions.

    At each step a random open transaction advances by one operation;
    when its operations are exhausted it commits.  New transactions are
    opened as slots free up.  ``value_of(txn_start_ts, row)`` supplies
    written values (defaults to the start timestamp, which makes
    writer identity recoverable from the store).

    Aborts (conflicts) are counted, not retried — matching how the
    paper's YCSB client counts abort rate.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    rng = random.Random(seed)
    result = HarnessResult()
    pending = list(specs)
    pending.reverse()  # pop from the end
    open_txns: List[_OpenTxn] = []

    def open_next() -> None:
        if pending:
            spec = pending.pop()
            open_txns.append(_OpenTxn(manager.begin(), spec))

    while len(open_txns) < concurrency and pending:
        open_next()

    while open_txns:
        slot = rng.randrange(len(open_txns))
        state = open_txns[slot]
        try:
            if state.next_op < len(state.spec.ops):
                op = state.spec.ops[state.next_op]
                state.next_op += 1
                if op.kind == "r":
                    state.txn.read(op.row)
                else:
                    value = (
                        value_of(state.txn.start_ts, op.row)
                        if value_of is not None
                        else state.txn.start_ts
                    )
                    state.txn.write(op.row, value)
                result.operations += 1
                continue
            # all operations done: commit
            state.txn.commit()
            result.committed += 1
            if state.spec.read_only:
                result.read_only_committed += 1
        except AbortException as exc:
            result.record_abort(exc.reason)
        else:
            open_txns.pop(slot)
            open_next()
            continue
        # aborted path: remove and refill
        open_txns.pop(slot)
        open_next()
    return result


def run_sequential(
    manager: TransactionManager,
    specs: Sequence[TransactionSpec],
    value_of: Optional[Callable[[int, int], object]] = None,
) -> HarnessResult:
    """Execute specs one at a time (no concurrency -> no conflicts).

    Baseline for tests: under *any* isolation level a serial execution
    must commit everything.
    """
    return run_interleaved(manager, specs, concurrency=1, value_of=value_of)


# ----------------------------------------------------------------------
# `make profile`, fourth leg: where a transaction's time goes, per call
# ----------------------------------------------------------------------
class _TimedTxn:
    """The slice of :class:`Transaction` the interleaver drives, with
    each call timed into the owning :class:`_TimedManager`."""

    __slots__ = ("_txn", "_clock", "start_ts")

    def __init__(self, txn: Transaction, clock: "_TimedManager") -> None:
        self._txn = txn
        self._clock = clock
        self.start_ts = txn.start_ts

    def read(self, row):
        clock, txn = self._clock, self._txn
        t0 = perf_counter_ns()
        value = txn.read(row)
        clock.charge("read", perf_counter_ns() - t0)
        if clock.calls["read"] % clock.sample_every == 0:
            # Untimed: how many versions the same read had to look at.
            version, skipped = clock.manager.reader.read_with_provenance(
                row, txn.start_ts, txn.start_ts
            )
            clock.sampled_reads += 1
            clock.versions_examined += skipped + (version is not None)
        return value

    def write(self, row, value) -> None:
        t0 = perf_counter_ns()
        self._txn.write(row, value)
        self._clock.charge("write", perf_counter_ns() - t0)

    def commit(self) -> int:
        t0 = perf_counter_ns()
        try:
            return self._txn.commit()
        finally:
            self._clock.charge("commit", perf_counter_ns() - t0)


class _TimedManager:
    """A :class:`TransactionManager` stand-in for :func:`run_interleaved`
    that accumulates nanoseconds and call counts per operation kind."""

    def __init__(self, manager: TransactionManager, sample_every: int) -> None:
        self.manager = manager
        self.sample_every = sample_every
        self.ns = dict.fromkeys(("begin", "read", "write", "commit"), 0)
        self.calls = dict(self.ns)
        self.sampled_reads = 0
        self.versions_examined = 0

    def charge(self, kind: str, elapsed_ns: int) -> None:
        self.ns[kind] += elapsed_ns
        self.calls[kind] += 1

    def begin(self) -> _TimedTxn:
        t0 = perf_counter_ns()
        txn = self.manager.begin()
        self.charge("begin", perf_counter_ns() - t0)
        return _TimedTxn(txn, self)


def profile_transactions(
    transactions: int = 20_000,
    keyspace: int = 200_000,
    concurrency: int = 16,
    seed: int = 1,
    sample_every: int = 16,
) -> None:
    """Print the per-call cost and the traffic of the ``txn-mixed`` path.

    Preloads ``keyspace`` rows into ``create_system("wsi", durable=True)``,
    drives ``mixed_workload("zipfian")`` through :func:`run_interleaved`
    and reports microseconds per ``begin`` / ``read`` / ``write`` /
    ``commit`` (each figure includes the ~0.1 us timing wrapper), reads
    and writes per transaction, versions examined per read (one read in
    ``sample_every`` is repeated, untimed, through
    ``read_with_provenance``) and the abort rate.
    """
    from repro.core.isolation import create_system
    from repro.workload.generator import mixed_workload

    manager = create_system("wsi", durable=True).manager
    chunk = 1_000
    for lo in range(0, keyspace, chunk):
        with manager.begin() as txn:
            for row in range(lo, min(lo + chunk, keyspace)):
                txn.write(row, -1)
    specs = mixed_workload("zipfian", keyspace=keyspace, seed=seed).batch(
        transactions
    )
    timed = _TimedManager(manager, sample_every)
    result = run_interleaved(timed, specs, concurrency=concurrency, seed=seed)

    print(
        f"txn-mixed profile: {result.total} transactions (zipfian over "
        f"{keyspace} preloaded rows, {concurrency} open at a time)"
    )
    for kind in ("begin", "read", "write", "commit"):
        calls = timed.calls[kind]
        print(
            f"  {kind:<7} {timed.ns[kind] / max(calls, 1) / 1e3:7.2f} us/call"
            f"  {calls:8d} calls"
            f"  {timed.ns[kind] / result.total / 1e3:7.2f} us/transaction"
        )
    print(
        f"  per transaction: {timed.calls['read'] / result.total:.2f} reads, "
        f"{timed.calls['write'] / result.total:.2f} writes; "
        f"{timed.versions_examined / max(timed.sampled_reads, 1):.2f} versions "
        f"examined per read ({timed.sampled_reads} sampled); "
        f"abort rate {result.abort_rate:.1%}"
    )


if __name__ == "__main__":  # pragma: no cover - `make profile` entry point
    import sys

    if "--profile-txn" in sys.argv:
        profile_transactions()
    else:
        sys.exit("usage: python -m repro.bench.harness --profile-txn")
