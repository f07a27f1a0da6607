"""Property tests: the batched frontend is observationally equivalent to
the unbatched oracle fed the same requests in batch order.

This is the load-bearing claim of :mod:`repro.server` (see its package
docstring): batching changes *when* decisions are computed and persisted,
never *what* is decided.  For any random workload we drive a frontend
(random batch bound, interleaved begins/commits/aborts) while recording
the order in which it decided things, then replay exactly that order
against a fresh unbatched oracle of the same kind and compare:

* every commit/abort decision, commit timestamp, reason and conflict row
  (via :class:`CommitResult` equality);
* the final ``lastCommit`` map (including LRU order and ``Tmax`` for the
  bounded oracle);
* the commit table and the full ``OracleStats`` counters.

Covered backends: plain SI, plain WSI, the bounded (Tmax) oracle under
both policies, and the partitioned oracle.

The ``decide_batch`` properties below exercise the batch-decide engine
directly (no frontend): for every oracle kind, deciding a batch in one
bulk pass — including mid-batch conflict aborts, client aborts and
read-only requests — must equal one ``commit()``/``abort()`` call per
item, in results and in final state, and the single group-commit WAL
record must replay to the same state as the sequential per-record log.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partitioned import PartitionedOracle
from repro.core.status_oracle import CommitRequest, make_oracle
from repro.server import OracleFrontend
from repro.wal.bookkeeper import BookKeeperWAL

ROWS = ["r0", "r1", "r2", "r3", "r4", "r5", "r6"]


@st.composite
def workload_scripts(draw):
    """A random script over a small row alphabet.

    Each entry opens a transaction with a read/write footprint, a submit
    ``gap`` (how many later begins happen before its request is
    submitted — this interleaves open transactions), and a flag marking
    it a client-initiated abort instead of a commit request.
    """
    steps = []
    num = draw(st.integers(min_value=1, max_value=24))
    for _ in range(num):
        reads = draw(st.sets(st.sampled_from(ROWS), max_size=3))
        writes = draw(st.sets(st.sampled_from(ROWS), max_size=3))
        gap = draw(st.integers(min_value=0, max_value=4))
        client_abort = draw(st.booleans()) and draw(st.booleans())  # ~25 %
        steps.append((frozenset(reads), frozenset(writes), gap, client_abort))
    return steps


def drive_frontend(oracle, script, max_batch, extra_flushes):
    """Run the script through a frontend; return the decision trace.

    The trace records, in the order the *frontend* acted on them:
    ``("begin", ts)`` when a start timestamp was served, and
    ``("commit"/"abort", request_or_ts, future)`` when a decision was
    computed at a flush.  Read-only fast-path commits are traced at
    submit time (they resolve immediately and touch no state).
    """
    frontend = OracleFrontend(oracle, max_batch=max_batch)
    trace = []
    by_start = {}  # start_ts -> ("commit", request) | ("abort", start_ts)
    # A count-trigger flush fires inside submit_*, so the lookup entry
    # must exist before the submission — hence keying by start timestamp.
    frontend.on_flush(
        lambda batch: trace.extend(
            by_start[f.start_ts] + (f,) for f in batch.futures
        )
    )
    pending = []  # (submit_deadline, request, client_abort)
    for step_idx, (reads, writes, gap, client_abort) in enumerate(script):
        start_ts = frontend.begin()
        trace.append(("begin", start_ts))
        request = CommitRequest(start_ts, write_set=writes, read_set=reads)
        pending.append([step_idx + gap, request, client_abort])
        for entry in list(pending):
            if entry[0] <= step_idx:
                pending.remove(entry)
                _submit(frontend, trace, by_start, entry)
        if step_idx in extra_flushes:
            frontend.flush()
    for entry in pending:
        _submit(frontend, trace, by_start, entry)
    frontend.flush()
    return trace


def _submit(frontend, trace, by_start, entry):
    _, request, client_abort = entry
    if client_abort:
        by_start[request.start_ts] = ("abort", request.start_ts)
        frontend.submit_abort(request.start_ts)
    else:
        by_start[request.start_ts] = ("commit", request)
        future = frontend.submit_commit(request)
        if future.done and future.batch is None:  # read-only fast path
            trace.append(("commit", request, future))


def replay_on_reference(reference, trace):
    """Feed the reference oracle the trace in frontend order, comparing
    each decision against the frontend's future."""
    for event in trace:
        if event[0] == "begin":
            assert reference.begin() == event[1]
        elif event[0] == "abort":
            _, start_ts, future = event
            reference.abort(start_ts)
            assert not future.committed
        else:
            _, request, future = event
            expected = reference.commit(request)
            assert expected == future.result(), (expected, future.result())


def assert_same_final_state(oracle, reference, check_lru=False):
    assert dict(oracle._last_commit) == dict(reference._last_commit)
    if check_lru:
        assert list(oracle._last_commit.items()) == list(
            reference._last_commit.items()
        )
        assert oracle.tmax == reference.tmax
    assert oracle.commit_table._commits == reference.commit_table._commits
    assert oracle.commit_table._aborted == reference.commit_table._aborted
    assert oracle.stats == reference.stats


@given(
    script=workload_scripts(),
    max_batch=st.integers(min_value=1, max_value=12),
    extra_flushes=st.sets(st.integers(min_value=0, max_value=23), max_size=3),
    level=st.sampled_from(["si", "wsi"]),
)
@settings(max_examples=120, deadline=None)
def test_plain_oracle_equivalence(script, max_batch, extra_flushes, level):
    oracle = make_oracle(level, wal=BookKeeperWAL())
    trace = drive_frontend(oracle, script, max_batch, extra_flushes)
    reference = make_oracle(level)
    replay_on_reference(reference, trace)
    assert_same_final_state(oracle, reference)


@given(
    script=workload_scripts(),
    max_batch=st.integers(min_value=1, max_value=12),
    max_rows=st.integers(min_value=1, max_value=6),
    level=st.sampled_from(["si", "wsi"]),
)
@settings(max_examples=120, deadline=None)
def test_bounded_oracle_equivalence(script, max_batch, max_rows, level):
    # A tiny lastCommit capacity forces evictions, so Tmax aborts and the
    # LRU order are genuinely exercised, not just the happy path.
    oracle = make_oracle(
        level, bounded=True, max_rows=max_rows, wal=BookKeeperWAL()
    )
    trace = drive_frontend(oracle, script, max_batch, set())
    reference = make_oracle(level, bounded=True, max_rows=max_rows)
    replay_on_reference(reference, trace)
    assert_same_final_state(oracle, reference, check_lru=True)
    if oracle.stats.tmax_aborts:
        assert reference.stats.tmax_aborts == oracle.stats.tmax_aborts


@given(
    script=workload_scripts(),
    max_batch=st.integers(min_value=1, max_value=12),
    num_partitions=st.integers(min_value=1, max_value=4),
    level=st.sampled_from(["si", "wsi"]),
)
@settings(max_examples=80, deadline=None)
def test_partitioned_oracle_equivalence(script, max_batch, num_partitions, level):
    oracle = PartitionedOracle(level=level, num_partitions=num_partitions)
    trace = drive_frontend(oracle, script, max_batch, set())
    reference = PartitionedOracle(level=level, num_partitions=num_partitions)
    replay_on_reference(reference, trace)
    for partition, ref_partition in zip(oracle.partitions, reference.partitions):
        assert partition._last_commit == ref_partition._last_commit
    assert oracle.commit_table._commits == reference.commit_table._commits
    assert oracle.commit_table._aborted == reference.commit_table._aborted
    assert oracle.stats == reference.stats
    assert oracle.cross_partition_commits == reference.cross_partition_commits


# ----------------------------------------------------------------------
# decide_batch ≡ sequential commit()/abort()
# ----------------------------------------------------------------------

@st.composite
def decision_batches(draw):
    """Batches of decision items: commit requests (some read-only — empty
    writes with or without reads) interleaved with client aborts."""
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        batch = []
        for _ in range(draw(st.integers(min_value=0, max_value=10))):
            reads = draw(st.sets(st.sampled_from(ROWS), max_size=3))
            writes = draw(st.sets(st.sampled_from(ROWS), max_size=3))
            client_abort = draw(st.booleans()) and draw(st.booleans())  # ~25 %
            batch.append((frozenset(reads), frozenset(writes), client_abort))
        batches.append(batch)
    return batches


def run_batched(oracle, batches):
    """Begin every member of a batch, then decide the batch in one call."""
    outcomes = []
    for batch in batches:
        items = []
        for reads, writes, client_abort in batch:
            start_ts = oracle.begin()
            if client_abort:
                items.append(start_ts)
            else:
                items.append(
                    CommitRequest(start_ts, write_set=writes, read_set=reads)
                )
        outcomes.extend(oracle.decide_batch(items))
    return outcomes


def run_sequential(oracle, batches):
    """Same begin schedule, but one commit()/abort() call per item."""
    from repro.core.status_oracle import CLIENT_ABORT, CommitResult

    outcomes = []
    for batch in batches:
        items = []
        for reads, writes, client_abort in batch:
            start_ts = oracle.begin()
            if client_abort:
                items.append(start_ts)
            else:
                items.append(
                    CommitRequest(start_ts, write_set=writes, read_set=reads)
                )
        for item in items:
            if isinstance(item, int):
                oracle.abort(item)
                outcomes.append(CommitResult(False, item, reason=CLIENT_ABORT))
            else:
                outcomes.append(oracle.commit(item))
    return outcomes


@given(
    batches=decision_batches(),
    level=st.sampled_from(["si", "wsi"]),
)
@settings(max_examples=120, deadline=None)
def test_decide_batch_plain_equivalence(batches, level):
    oracle = make_oracle(level)
    reference = make_oracle(level)
    assert run_batched(oracle, batches) == run_sequential(reference, batches)
    assert_same_final_state(oracle, reference)


@given(
    batches=decision_batches(),
    max_rows=st.integers(min_value=1, max_value=6),
    level=st.sampled_from(["si", "wsi"]),
)
@settings(max_examples=120, deadline=None)
def test_decide_batch_bounded_equivalence(batches, max_rows, level):
    oracle = make_oracle(level, bounded=True, max_rows=max_rows)
    reference = make_oracle(level, bounded=True, max_rows=max_rows)
    assert run_batched(oracle, batches) == run_sequential(reference, batches)
    assert_same_final_state(oracle, reference, check_lru=True)


def assert_same_partitioned_state(oracle, reference):
    for partition, ref_partition in zip(oracle.partitions, reference.partitions):
        assert partition._last_commit == ref_partition._last_commit
        assert partition.stats == ref_partition.stats
    assert oracle.commit_table._commits == reference.commit_table._commits
    assert oracle.commit_table._aborted == reference.commit_table._aborted
    assert oracle.stats == reference.stats
    assert oracle.cross_partition_commits == reference.cross_partition_commits
    assert oracle.cross_partition_aborts == reference.cross_partition_aborts
    assert oracle.single_partition_commits == reference.single_partition_commits
    assert oracle.single_partition_aborts == reference.single_partition_aborts


@given(
    batches=decision_batches(),
    num_partitions=st.integers(min_value=1, max_value=4),
    level=st.sampled_from(["si", "wsi"]),
    lastcommit=st.sampled_from(["dict", "array"]),
)
@settings(max_examples=100, deadline=None)
def test_decide_batch_partitioned_equivalence(
    batches, num_partitions, level, lastcommit
):
    # The batched path over either lastCommit store ≡ the sequential
    # path over the dict store.
    oracle = PartitionedOracle(
        level=level, num_partitions=num_partitions, lastcommit=lastcommit
    )
    reference = PartitionedOracle(
        level=level, num_partitions=num_partitions, lastcommit="dict"
    )
    assert run_batched(oracle, batches) == run_sequential(reference, batches)
    assert_same_partitioned_state(oracle, reference)


# ----------------------------------------------------------------------
# mixed single/cross batches
# ----------------------------------------------------------------------
#
# Rows are integers constructed per target shard (stable_hash maps an
# integer to itself, so ``shard + k * PARTS`` lands exactly on
# ``shard``): each generated footprint is explicitly partition-aligned
# or explicitly spanning, so every batch genuinely mixes
# single-partition requests with cross-partition members — both
# branches of the partitioned engine's commit().

PARTS = 3


@st.composite
def mixed_partition_batches(draw):
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        batch = []
        for _ in range(draw(st.integers(min_value=0, max_value=10))):
            client_abort = draw(st.booleans()) and draw(st.booleans())  # ~25 %
            if client_abort:
                batch.append((frozenset(), frozenset(), True))
                continue
            kind = draw(st.sampled_from(["aligned", "cross", "ro"]))
            if kind == "ro":
                reads = {
                    draw(st.integers(min_value=0, max_value=11))
                    for _ in range(draw(st.integers(min_value=0, max_value=2)))
                }
                batch.append((frozenset(reads), frozenset(), False))
                continue
            if kind == "aligned":
                shard = draw(st.integers(min_value=0, max_value=PARTS - 1))
                shards = [shard]
            else:
                shards = list(range(PARTS))
            rows = st.sampled_from(
                [s + k * PARTS for s in shards for k in range(4)]
            )
            writes = draw(st.sets(rows, min_size=1, max_size=4))
            reads = draw(st.sets(rows, max_size=4))
            batch.append((frozenset(reads), frozenset(writes), False))
        batches.append(batch)
    return batches


@given(
    batches=mixed_partition_batches(),
    level=st.sampled_from(["si", "wsi"]),
    bounded=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_decide_batch_mixed_footprints_plain_and_bounded(batches, level, bounded):
    # The same mixed single/cross workload must also decide identically
    # on the monolithic oracles (there the distinction is invisible —
    # which is the point: partitioning never changes decisions).
    kwargs = {"bounded": True, "max_rows": 5} if bounded else {}
    oracle = make_oracle(level, **kwargs)
    reference = make_oracle(level, **kwargs)
    assert run_batched(oracle, batches) == run_sequential(reference, batches)
    assert_same_final_state(oracle, reference, check_lru=bounded)


@given(
    batches=mixed_partition_batches(),
    num_partitions=st.sampled_from([1, 2, PARTS, 5]),
    level=st.sampled_from(["si", "wsi"]),
    lastcommit=st.sampled_from(["dict", "array"]),
)
@settings(max_examples=120, deadline=None)
def test_decide_batch_mixed_footprints_partitioned(
    batches, num_partitions, level, lastcommit
):
    oracle = PartitionedOracle(
        level=level, num_partitions=num_partitions, lastcommit=lastcommit
    )
    reference = PartitionedOracle(
        level=level, num_partitions=num_partitions, lastcommit="dict"
    )
    assert run_batched(oracle, batches) == run_sequential(reference, batches)
    assert_same_partitioned_state(oracle, reference)


@given(
    batches=mixed_partition_batches(),
    num_partitions=st.sampled_from([2, PARTS]),
    level=st.sampled_from(["si", "wsi"]),
    bad_positions=st.sets(st.integers(min_value=0, max_value=9), max_size=2),
    lastcommit=st.sampled_from(["dict", "array"]),
)
@settings(max_examples=80, deadline=None)
def test_decide_batch_mid_batch_errors_isolated(
    batches, num_partitions, level, bad_positions, lastcommit
):
    # Commit-table protocol errors (aborting an already-committed
    # transaction) mid-batch must be isolated to the offending request:
    # the rest of the batch decides exactly as if the bad item were
    # skipped, and the first error re-raises afterwards — for the
    # batched path (either lastCommit store) against the sequential path
    # over the dict store.
    oracle = PartitionedOracle(
        level=level, num_partitions=num_partitions, lastcommit=lastcommit
    )
    reference = PartitionedOracle(
        level=level, num_partitions=num_partitions, lastcommit="dict"
    )

    # Pre-commit one transaction on both oracles; aborting it later is
    # the protocol error injected mid-batch.
    committed_req = CommitRequest(
        oracle.begin(), write_set=frozenset([0, 1, PARTS])
    )
    assert oracle.commit(committed_req).committed
    ref_req = CommitRequest(
        reference.begin(), write_set=frozenset([0, 1, PARTS])
    )
    assert reference.commit(ref_req).committed
    bad_start = committed_req.start_ts

    for batch in batches:
        items, ref_items = [], []
        for i, (reads, writes, client_abort) in enumerate(batch):
            start = oracle.begin()
            ref_start = reference.begin()
            if i in bad_positions:
                items.append(bad_start)
                ref_items.append(bad_start)
            elif client_abort:
                items.append(start)
                ref_items.append(ref_start)
            else:
                items.append(
                    CommitRequest(start, write_set=writes, read_set=reads)
                )
                ref_items.append(
                    CommitRequest(ref_start, write_set=writes, read_set=reads)
                )
        expect_error = any(i < len(batch) for i in bad_positions)
        if expect_error:
            with pytest.raises(ValueError, match="already committed"):
                oracle.decide_batch(items)
        else:
            oracle.decide_batch(items)
        for item in ref_items:
            if isinstance(item, int):
                try:
                    reference.abort(item)
                except ValueError:
                    assert item == bad_start
            else:
                reference.commit(item)
    assert_same_partitioned_state(oracle, reference)


@given(
    batches=mixed_partition_batches(),
    num_partitions=st.sampled_from([2, PARTS]),
    level=st.sampled_from(["si", "wsi"]),
    max_batch=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_partitioned_group_commit_wal_replay(
    batches, num_partitions, level, max_batch
):
    # Durability leg for the partitioned deployment: the frontend's
    # group-commit records over a mixed single/cross workload must
    # replay — on a *monolithic* oracle — to exactly the union of the
    # partitions' lastCommit shares and the same commit table.
    wal = BookKeeperWAL()
    oracle = PartitionedOracle(level=level, num_partitions=num_partitions)
    frontend = OracleFrontend(oracle, max_batch=max_batch, wal=wal)
    for batch in batches:
        for reads, writes, client_abort in batch:
            start = frontend.begin()
            if client_abort:
                frontend.submit_abort(start)
            else:
                frontend.submit_commit(
                    CommitRequest(start, write_set=writes, read_set=reads)
                )
        frontend.flush()
    wal.flush()
    recovered = make_oracle(level)
    recovered.recover_from(wal)
    union = {}
    for partition in oracle.partitions:
        union.update(partition._last_commit)
    assert dict(recovered._last_commit) == union
    assert recovered.commit_table._commits == oracle.commit_table._commits
    assert recovered.commit_table._aborted == oracle.commit_table._aborted
    # and the recovered oracle resumes timestamps above everything used
    assert recovered.begin() > max(
        [0]
        + list(oracle.commit_table._commits)
        + list(oracle.commit_table._commits.values())
    )


@given(
    batches=decision_batches(),
    bounded=st.booleans(),
    level=st.sampled_from(["si", "wsi"]),
)
@settings(max_examples=60, deadline=None)
def test_decide_batch_wal_replay_equivalence(batches, bounded, level):
    # Durability leg: one group-commit record per batch must replay to
    # exactly the state the sequential per-record WAL replays to.
    kwargs = {"bounded": True, "max_rows": 4} if bounded else {}
    batch_wal, seq_wal = BookKeeperWAL(), BookKeeperWAL()
    oracle = make_oracle(level, wal=batch_wal, **kwargs)
    reference = make_oracle(level, wal=seq_wal, **kwargs)
    assert run_batched(oracle, batches) == run_sequential(reference, batches)
    batch_wal.flush()
    seq_wal.flush()
    from_batch = make_oracle(level, **kwargs)
    from_batch.recover_from(batch_wal)
    from_seq = make_oracle(level, **kwargs)
    from_seq.recover_from(seq_wal)
    assert dict(from_batch._last_commit) == dict(from_seq._last_commit)
    assert from_batch.commit_table._commits == from_seq.commit_table._commits
    assert from_batch.commit_table._aborted == from_seq.commit_table._aborted
    # and both recovered instances resume timestamps identically
    assert from_batch.begin() == from_seq.begin()


# ----------------------------------------------------------------------
# partitioned ≡ monolithic sequential reference
# ----------------------------------------------------------------------
#
# The partitioned engine batches with the same commit() loop its
# sequential path runs, so its batched ≡ sequential properties above pin
# the array store against the dict store; this one pins the engine
# itself against the *monolithic* oracle (commit()/abort() per item):
# partitioning never changes decisions, commit timestamps, the union of
# the lastCommit shards or the commit table.


@given(
    batches=mixed_partition_batches(),
    level=st.sampled_from(["si", "wsi"]),
    lastcommit=st.sampled_from(["dict", "array"]),
)
@settings(max_examples=60, deadline=None)
def test_partitioned_equals_sequential_monolith(batches, level, lastcommit):
    partitioned = PartitionedOracle(
        level=level, num_partitions=PARTS, lastcommit=lastcommit
    )
    reference = make_oracle(level)
    decisions = [
        (r.committed, r.start_ts, r.commit_ts, r.reason)
        for r in run_batched(partitioned, batches)
    ]
    expected = [
        (r.committed, r.start_ts, r.commit_ts, r.reason)
        for r in run_sequential(reference, batches)
    ]
    assert decisions == expected
    union = {}
    for partition in partitioned.partitions:
        union.update(partition._last_commit.items())
    assert union == reference._last_commit
    assert partitioned.commit_table._commits == reference.commit_table._commits
    assert partitioned.commit_table._aborted == reference.commit_table._aborted


# ----------------------------------------------------------------------
# begin leases: leased-begin histories ≡ per-call-begin histories
# ----------------------------------------------------------------------
#
# ``begin_lease=n`` changes *where* a start timestamp comes from (a
# locally-served, durably-reserved block) but never what is decided for
# the same begin/submit schedule.  With the begins of a history issued
# up-front (the prologue shape), leases refill back-to-back, so the
# served begins are exactly the per-call sequence; the only permitted
# difference is a constant timestamp *gap* in commit timestamps when the
# last lease is partially unserved (``begin_many`` leases exactly, so
# even the gap vanishes).  Decisions are gap-invariant: every commit
# timestamp exceeds every prologue begin on both sides.

BACKEND_KINDS = ["si", "wsi", "bounded-si", "bounded-wsi", "partitioned"]


def make_backend(kind):
    if kind == "partitioned":
        return PartitionedOracle(level="wsi", num_partitions=PARTS)
    if kind.startswith("bounded-"):
        return make_oracle(kind.split("-", 1)[1], bounded=True, max_rows=5)
    return make_oracle(kind)


@st.composite
def lease_step_scripts(draw):
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=20))):
        reads = draw(st.sets(st.sampled_from(ROWS), max_size=3))
        writes = draw(st.sets(st.sampled_from(ROWS), max_size=3))
        client_abort = draw(st.booleans()) and draw(st.booleans())  # ~25 %
        steps.append((frozenset(reads), frozenset(writes), client_abort))
    return steps


def run_lease_history(backend, steps, begin_lease, max_batch, use_begin_many):
    frontend = OracleFrontend(
        backend, max_batch=max_batch, begin_lease=begin_lease
    )
    if use_begin_many:
        starts = frontend.begin_many(len(steps))
    else:
        starts = [frontend.begin() for _ in steps]
    futures = []
    for start, (reads, writes, client_abort) in zip(starts, steps):
        if client_abort:
            futures.append(frontend.submit_abort(start))
        else:
            futures.append(
                frontend.submit_commit(
                    CommitRequest(start, write_set=writes, read_set=reads)
                )
            )
    frontend.flush()
    return starts, futures


def normalized_history(futures):
    """Decisions with commit timestamps rebased on the first one, plus
    the base — so histories compare across a constant lease gap."""
    bases = [
        f._commit_ts
        for f in futures
        if f._error is None and f._committed and f._commit_ts is not None
    ]
    base = bases[0] if bases else 0
    decisions = []
    for f in futures:
        result = f.result()
        decisions.append(
            (
                result.committed,
                result.start_ts,
                None if result.commit_ts is None else result.commit_ts - base,
                result.reason,
                result.conflict_row,
            )
        )
    return decisions, base


@given(
    steps=lease_step_scripts(),
    begin_lease=st.integers(min_value=2, max_value=12),
    max_batch=st.integers(min_value=1, max_value=10),
    kind=st.sampled_from(BACKEND_KINDS),
    use_begin_many=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_leased_begin_history_equivalence(
    steps, begin_lease, max_batch, kind, use_begin_many
):
    leased = make_backend(kind)
    reference = make_backend(kind)
    l_starts, l_futures = run_lease_history(
        leased, steps, begin_lease, max_batch, use_begin_many
    )
    r_starts, r_futures = run_lease_history(
        reference, steps, 1, max_batch, use_begin_many
    )
    # identical, strictly increasing start timestamps — leases refill
    # back-to-back in the prologue, so leased == per-call begins
    assert l_starts == r_starts
    assert all(b > a for a, b in zip(l_starts, l_starts[1:]))
    l_history, l_base = normalized_history(l_futures)
    r_history, r_base = normalized_history(r_futures)
    assert l_history == r_history
    gap = l_base - r_base
    assert gap >= 0
    if use_begin_many:
        assert gap == 0  # begin_many leases exactly: no unserved block
    # final state equal up to the same constant gap
    if kind == "partitioned":
        for partition, ref_partition in zip(
            leased.partitions, reference.partitions
        ):
            assert {k: v - gap for k, v in partition._last_commit.items()} == dict(
                ref_partition._last_commit
            )
        assert leased.cross_partition_commits == reference.cross_partition_commits
        assert leased.single_partition_commits == reference.single_partition_commits
    else:
        assert {k: v - gap for k, v in leased._last_commit.items()} == dict(
            reference._last_commit
        )
        if kind.startswith("bounded-"):
            assert list(leased._last_commit) == list(reference._last_commit)
            ref_tmax = reference.tmax
            assert leased.tmax == (ref_tmax + gap if ref_tmax else 0)
    assert {
        s: c - gap for s, c in leased.commit_table._commits.items()
    } == dict(reference.commit_table._commits)
    assert leased.commit_table._aborted == reference.commit_table._aborted
    assert leased.stats == reference.stats


@given(
    script=workload_scripts(),
    max_batch=st.integers(min_value=1, max_value=8),
    begin_lease=st.integers(min_value=1, max_value=12),
    level=st.sampled_from(["si", "wsi"]),
)
@settings(max_examples=60, deadline=None)
def test_leased_begin_interleaved_invariants_and_recovery(
    script, max_batch, begin_lease, level
):
    # Fully interleaved begins/submits/flushes: decisions may legitimately
    # shift (a lease-served begin carries the snapshot of its refill
    # time), but the timestamp invariants may not — begins strictly
    # increase, never collide with commit timestamps, and nothing is
    # ever reissued across recover_from, unserved lease included.
    wal = BookKeeperWAL()
    oracle = make_oracle(level, wal=wal)
    frontend = OracleFrontend(
        oracle, max_batch=max_batch, begin_lease=begin_lease
    )
    starts = []
    pending = []
    for step_idx, (reads, writes, gap, client_abort) in enumerate(script):
        start_ts = frontend.begin()
        starts.append(start_ts)
        request = CommitRequest(start_ts, write_set=writes, read_set=reads)
        pending.append([step_idx + gap, request, client_abort])
        for entry in list(pending):
            if entry[0] <= step_idx:
                pending.remove(entry)
                if entry[2]:
                    frontend.submit_abort(entry[1].start_ts)
                else:
                    frontend.submit_commit(entry[1])
    for entry in pending:
        if entry[2]:
            frontend.submit_abort(entry[1].start_ts)
        else:
            frontend.submit_commit(entry[1])
    frontend.flush()

    assert all(b > a for a, b in zip(starts, starts[1:]))
    commit_timestamps = set(oracle.commit_table._commits.values())
    assert commit_timestamps.isdisjoint(starts)
    for start_ts, commit_ts in oracle.commit_table._commits.items():
        assert commit_ts > start_ts

    # crash now: recovery must resume strictly above the reservation
    # mark, so served begins, commit timestamps and the unserved lease
    # remainder alike can never come back
    wal.flush()
    fresh = make_oracle(level)
    fresh.recover_from(wal)
    used = set(starts) | commit_timestamps
    floor = oracle.timestamp_oracle.reserved_high_water
    for _ in range(3):
        ts = fresh.begin()
        assert ts > floor
        assert ts not in used


@given(
    script=workload_scripts(),
    max_batch=st.integers(min_value=1, max_value=12),
    level=st.sampled_from(["si", "wsi"]),
)
@settings(max_examples=60, deadline=None)
def test_group_commit_recovery_equivalence(script, max_batch, level):
    # Durability leg of the same property: replaying the group-commit WAL
    # reconstructs exactly the state the live frontend-backed oracle had.
    wal = BookKeeperWAL()
    oracle = make_oracle(level, wal=wal)
    drive_frontend(oracle, script, max_batch, set())
    wal.flush()
    fresh = make_oracle(level)
    fresh.recover_from(wal)
    assert dict(fresh._last_commit) == dict(oracle._last_commit)
    assert fresh.commit_table._commits == oracle.commit_table._commits
    assert fresh.commit_table._aborted == oracle.commit_table._aborted
    # and the recovered oracle never reissues a timestamp
    used = set(oracle.commit_table._commits) | set(
        oracle.commit_table._commits.values()
    )
    for _ in range(5):
        assert fresh.begin() not in used


# ---------------------------------------------------------------------------
# failover history equivalence (the HA serving tier)
# ---------------------------------------------------------------------------
#
# A leader crash mid-batch must not change *what the history decides*:
# retried requests re-decide identically against the recovered state.
# The property holds unconditionally when every begin precedes every
# decision — with interleaved begins a retried commit's timestamp lands
# after later begins, which can legitimately flip an rw-conflict (the
# transaction really is concurrent with more history on the retry), so
# the scripts here open all transactions up front.  Non-durable flush
# points are allowed anywhere: a flushed-but-unsynced decision is lost
# in the crash and retried exactly like an open-batch one.

from repro.server import ReplicatedFrontend, RetryPolicy


@st.composite
def failover_scripts(draw):
    steps = []
    num = draw(st.integers(min_value=1, max_value=10))
    for _ in range(num):
        reads = draw(st.sets(st.sampled_from(ROWS), max_size=3))
        writes = draw(st.sets(st.sampled_from(ROWS), max_size=3))
        client_abort = draw(st.booleans()) and draw(st.booleans())  # ~25 %
        steps.append((frozenset(reads), frozenset(writes), client_abort))
    flush_points = draw(
        st.sets(st.integers(min_value=0, max_value=num - 1), max_size=3)
    )
    kill_after = draw(st.integers(min_value=0, max_value=num - 1))
    return steps, flush_points, kill_after


def _drive_script(frontend, steps, flush_points, mid_flush, crash_at=None):
    """All begins first, then submissions in order; returns the futures.

    ``mid_flush`` forces the open *batch* (not the WAL) at the given
    submission indices; ``crash_at`` invokes the caller's crash hook
    after that submission index.
    """
    starts = [frontend.begin() for _ in steps]
    futures = []
    for idx, (reads, writes, client_abort) in enumerate(steps):
        if client_abort:
            futures.append(frontend.submit_abort(starts[idx]))
        else:
            futures.append(
                frontend.submit_commit(
                    CommitRequest(starts[idx], write_set=writes, read_set=reads)
                )
            )
        if idx in flush_points:
            mid_flush()
        if crash_at is not None and idx == crash_at:
            crash_at = None
            yield_crash = True
        else:
            yield_crash = False
        if yield_crash:
            yield idx
    yield -1  # done marker
    # futures escape via the attribute below (generators can't return
    # values portably before the final yield)
    _drive_script.futures = futures
    _drive_script.starts = starts


def _outcomes(futures):
    return [f.outcome() for f in futures]


@given(script=failover_scripts(), level=st.sampled_from(["si", "wsi"]))
@settings(max_examples=60, deadline=None)
def test_failover_history_equivalence(script, level):
    steps, flush_points, kill_after = script

    # Reference: a plain frontend, no crash, same flush points.
    reference = OracleFrontend(make_oracle(level), max_batch=100)
    ref_drive = _drive_script(reference, steps, flush_points, reference.flush)
    for _ in ref_drive:
        pass
    reference.flush()
    ref_futures = _drive_script.futures

    # HA tier: crash the leader after submission `kill_after`; every
    # not-yet-durable request is retried against the promoted standby.
    rf = ReplicatedFrontend(
        num_hosts=2,
        level=level,
        warm=True,
        max_batch=100,
        retry_policy=RetryPolicy(max_attempts=8, base_delay=0.0),
        # pinned: the reference frontend above is the status oracle, so
        # this side must not drift with the REPRO_ENGINE axis.
        engine="oracle",
    )
    ha_drive = _drive_script(
        rf,
        steps,
        flush_points,
        lambda: rf.active_frontend.flush(),  # batch out, WAL NOT synced
        crash_at=kill_after,
    )
    for marker in ha_drive:
        if marker >= 0:
            rf.standby_catch_up()
            rf.kill_active()
    rf.flush()
    ha_futures = _drive_script.futures
    ha_starts = _drive_script.starts

    # Same per-request outcome, crash or no crash.
    assert _outcomes(ha_futures) == _outcomes(ref_futures)

    # And no timestamp is ever reused across the failover: begins and
    # commit timestamps are all distinct.
    commit_ts = [
        f.commit_ts
        for f in ha_futures
        if f.outcome() == "committed" and f.commit_ts is not None
    ]
    seen = ha_starts + commit_ts
    assert len(seen) == len(set(seen))
    assert rf.failovers == 1


# ----------------------------------------------------------------------
# array backend ≡ dict backend (the representation-change pin)
# ----------------------------------------------------------------------
#
# The array lastCommit store (repro.core.lastcommit) must be a pure
# representation change: for any workload, an array-backed oracle and a
# dict-backed oracle decide identically — decisions, commit timestamps,
# reasons, conflict rows, stats (rows_checked included), final
# lastCommit content and LRU order — and their WALs replay to the same
# state on either backend.


@given(
    batches=decision_batches(),
    level=st.sampled_from(["si", "wsi"]),
    bounded=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_decide_batch_array_equals_dict_backend(batches, level, bounded):
    kwargs = {"bounded": True, "max_rows": 4} if bounded else {}
    array_oracle = make_oracle(level, lastcommit="array", **kwargs)
    dict_oracle = make_oracle(level, lastcommit="dict", **kwargs)
    assert run_batched(array_oracle, batches) == run_batched(
        dict_oracle, batches
    )
    assert_same_final_state(array_oracle, dict_oracle, check_lru=bounded)


@st.composite
def wide_int_batches(draw):
    """Batches whose read sets are wide enough (>= NUMPY_MIN_ROWS) and
    purely int-keyed to drive the array store's vectorised timestamp
    lane inside the batch decide loop, with enough key reuse to produce
    conflicts."""
    from repro.core.lastcommit import NUMPY_MIN_ROWS

    keyspace = st.integers(min_value=0, max_value=200)
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        batch = []
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            reads = draw(
                st.sets(
                    keyspace,
                    min_size=NUMPY_MIN_ROWS,
                    max_size=NUMPY_MIN_ROWS + 16,
                )
            )
            writes = draw(st.sets(keyspace, min_size=1, max_size=4))
            batch.append((frozenset(reads), frozenset(writes), False))
        batches.append(batch)
    return batches


@given(batches=wide_int_batches(), level=st.sampled_from(["si", "wsi"]))
@settings(max_examples=60, deadline=None)
def test_decide_batch_array_equals_dict_vectorised_lane(batches, level):
    array_oracle = make_oracle(level, lastcommit="array")
    dict_oracle = make_oracle(level, lastcommit="dict")
    assert run_batched(array_oracle, batches) == run_batched(
        dict_oracle, batches
    )
    assert_same_final_state(array_oracle, dict_oracle)
    # the lane never ended (every key in this workload is a plain int),
    # and under WSI the wide read sets are scanned, which builds it
    lane = array_oracle._last_commit._lane
    assert lane is not False
    if level == "wsi":
        assert lane


@given(
    script=workload_scripts(),
    max_batch=st.integers(min_value=1, max_value=12),
    level=st.sampled_from(["si", "wsi"]),
)
@settings(max_examples=80, deadline=None)
def test_frontend_array_backend_equals_dict_reference(
    script, max_batch, level
):
    # The full frontend path (batching, client aborts, read-only fast
    # path) over an array-backed oracle, replayed on a dict-backed
    # reference in frontend decision order.
    oracle = make_oracle(level, lastcommit="array", wal=BookKeeperWAL())
    trace = drive_frontend(oracle, script, max_batch, set())
    reference = make_oracle(level, lastcommit="dict")
    replay_on_reference(reference, trace)
    assert_same_final_state(oracle, reference)


@given(
    batches=decision_batches(),
    level=st.sampled_from(["si", "wsi"]),
    recover_backend=st.sampled_from(["dict", "array"]),
)
@settings(max_examples=60, deadline=None)
def test_array_backend_wal_replay_equivalence(
    batches, level, recover_backend
):
    # An array-backed run's group-commit WAL must replay — onto *either*
    # backend — to the state a dict-backed run's WAL replays to.
    array_wal, dict_wal = BookKeeperWAL(), BookKeeperWAL()
    array_oracle = make_oracle(level, lastcommit="array", wal=array_wal)
    dict_oracle = make_oracle(level, lastcommit="dict", wal=dict_wal)
    assert run_batched(array_oracle, batches) == run_batched(
        dict_oracle, batches
    )
    array_wal.flush()
    dict_wal.flush()
    from_array = make_oracle(level, lastcommit=recover_backend)
    from_array.recover_from(array_wal)
    from_dict = make_oracle(level, lastcommit="dict")
    from_dict.recover_from(dict_wal)
    assert dict(from_array._last_commit) == dict(from_dict._last_commit)
    assert (
        from_array.commit_table._commits == from_dict.commit_table._commits
    )
    assert (
        from_array.commit_table._aborted == from_dict.commit_table._aborted
    )
    assert from_array.begin() == from_dict.begin()


@given(
    batches=mixed_partition_batches(),
    num_partitions=st.sampled_from([1, 2, PARTS]),
    level=st.sampled_from(["si", "wsi"]),
)
@settings(max_examples=60, deadline=None)
def test_partitioned_array_equals_dict_backend(
    batches, num_partitions, level
):
    array_oracle = PartitionedOracle(
        level=level, num_partitions=num_partitions, lastcommit="array"
    )
    dict_oracle = PartitionedOracle(
        level=level, num_partitions=num_partitions, lastcommit="dict"
    )
    assert run_batched(array_oracle, batches) == run_batched(
        dict_oracle, batches
    )
    for array_part, dict_part in zip(
        array_oracle.partitions, dict_oracle.partitions
    ):
        assert array_part._last_commit == dict_part._last_commit
    assert (
        array_oracle.commit_table._commits
        == dict_oracle.commit_table._commits
    )
    assert (
        array_oracle.commit_table._aborted
        == dict_oracle.commit_table._aborted
    )
    assert array_oracle.stats == dict_oracle.stats
