"""The CommitEngine contract, pinned for every shipped engine.

Every protocol behind :func:`~repro.core.engine.make_engine` must
expose the same surface the serving stack consumes (see
:mod:`repro.core.engine`'s module docstring): timestamps, sequential
and batched decisions, WAL recovery hooks, stats, and the routing
hints.  These tests parametrize over ``ENGINE_KINDS`` so a new engine
kind is contract-checked by adding one string.

``REPRO_ENGINE`` is the CI axis: ``make check`` runs the fast suite
once per kind with the variable set, and :func:`make_engine`'s default
must honour it — pinned here with ``monkeypatch``.
"""

from __future__ import annotations

import pytest

from repro.bench.frontend_bench import sequential_decide
from repro.core.engine import ENGINE_KINDS, CommitEngine, make_engine
from repro.core.errors import OracleClosed
from repro.core.partitioned import PartitionedOracle
from repro.core.status_oracle import (
    CLIENT_ABORT,
    CommitRequest,
    CommitResult,
    StatusOracle,
    make_oracle,
)
from repro.server import OracleFrontend
from repro.wal.bookkeeper import BookKeeperWAL


def req(start, writes=(), reads=()):
    return CommitRequest(
        start_ts=start,
        write_set=frozenset(writes),
        read_set=frozenset(reads),
    )


@pytest.fixture(params=ENGINE_KINDS)
def kind(request):
    return request.param


# ----------------------------------------------------------------------
# the factory and its REPRO_ENGINE axis
# ----------------------------------------------------------------------

class TestMakeEngine:
    def test_known_kinds_build_commit_engines(self, kind):
        engine = make_engine(kind)
        assert isinstance(engine, CommitEngine)

    def test_partitioned_oracle_is_a_commit_engine(self):
        from repro.core.partitioned import PartitionedOracle

        assert isinstance(PartitionedOracle(), CommitEngine)

    def test_levels(self):
        assert make_engine("oracle").level == "wsi"
        assert make_engine("si").level == "si"
        assert make_engine("wsi").level == "wsi"
        assert make_engine("percolator").level == "percolator"
        assert make_engine("ssi").level == "ssi"

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown engine kind"):
            make_engine("spanner")

    def test_env_var_is_the_default_axis(self, monkeypatch, kind):
        monkeypatch.setenv("REPRO_ENGINE", kind)
        built = make_engine()
        reference = make_engine(kind)
        assert type(built) is type(reference)

    def test_default_without_env_is_the_oracle(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert isinstance(make_engine(), StatusOracle)
        assert make_engine().level == "wsi"

    def test_oracle_kind_accepts_level_kwarg(self):
        assert make_engine("oracle", level="si").level == "si"

    def test_non_oracle_kinds_ignore_level(self):
        # The HA/sim layers pass level= unconditionally; non-oracle
        # engines must swallow it instead of exploding.
        assert make_engine("percolator", level="wsi").level == "percolator"
        assert make_engine("ssi", level="wsi").level == "ssi"


# ----------------------------------------------------------------------
# the common decision surface
# ----------------------------------------------------------------------

class TestDecisionContract:
    def test_begin_is_strictly_increasing(self, kind):
        engine = make_engine(kind)
        starts = [engine.begin() for _ in range(100)]
        assert starts == sorted(set(starts))

    def test_commit_then_conflicting_commit(self, kind):
        engine = make_engine(kind)
        s1, s2 = engine.begin(), engine.begin()
        r1 = engine.commit(req(s1, writes=["x"]))
        assert r1.committed and r1.commit_ts > s1
        # read x as well: WSI detects the conflict via the read set,
        # the others via the write set.
        r2 = engine.commit(req(s2, writes=["x"], reads=["x"]))
        assert not r2.committed
        assert r2.conflict_row == "x" or r2.reason.startswith("ssi")
        assert engine.commit_table.is_committed(s1)
        assert engine.commit_table.is_aborted(s2)
        assert engine.stats.commits == 1
        assert engine.stats.aborts == 1
        assert engine.stats.conflict_aborts == 1

    def test_empty_footprint_commits_free(self, kind):
        engine = make_engine(kind)
        result = engine.commit(req(engine.begin()))
        assert result.committed and result.commit_ts is None
        assert engine.stats.read_only_commits == 1

    def test_client_abort(self, kind):
        engine = make_engine(kind)
        start = engine.begin()
        engine.abort(start)
        assert engine.commit_table.is_aborted(start)
        assert engine.stats.aborts == 1

    def test_decide_batch_matches_surface(self, kind):
        engine = make_engine(kind)
        starts = [engine.begin() for _ in range(4)]
        results = engine.decide_batch(
            [
                req(starts[0], writes=["a"]),
                req(starts[1], writes=["a"], reads=["a"]),  # loser
                starts[2],                     # client abort
                req(starts[3]),
            ]
        )
        assert [r.committed for r in results] == [True, False, False, True]
        assert results[2].reason == CLIENT_ABORT
        assert results[3].commit_ts is None

    def test_rows_to_check_policy_hook(self, kind):
        engine = make_engine(kind)
        request = req(10**6, writes=["w"], reads=["r"])
        rows = engine.rows_to_check(request)
        if engine.level == "wsi":
            assert rows == frozenset(["r"])
        else:  # si, percolator, ssi all validate the write set first
            assert rows == frozenset(["w"])

    def test_close_then_begin_raises(self, kind):
        engine = make_engine(kind)
        engine.close()
        with pytest.raises(OracleClosed):
            engine.begin()

    def test_observability_surface(self, kind):
        engine = make_engine(kind)
        assert isinstance(engine.level, str)
        assert isinstance(engine.naive_read_only, bool)
        assert engine.timestamp_oracle is not None
        assert engine.commit_table is not None
        lease = getattr(engine, "lease", None)
        if lease is not None:
            lo, hi = lease(16)
            assert hi - lo == 15


# ----------------------------------------------------------------------
# the default batch decision: one commit()/abort() call per item
# ----------------------------------------------------------------------

#: engines deciding batches with CommitEngine's default loop: the
#: partitioned oracle inherits it, a monolithic oracle gets it through
#: the benchmark baseline hook.
BASE_LOOP_ENGINES = {
    "partitioned-dict": lambda: PartitionedOracle(
        level="wsi", num_partitions=3, lastcommit="dict"
    ),
    "partitioned-array": lambda: PartitionedOracle(
        level="wsi", num_partitions=3, lastcommit="array"
    ),
    "oracle-wsi": lambda: make_oracle("wsi"),
    "oracle-si": lambda: make_oracle("si"),
}


@pytest.fixture(params=sorted(BASE_LOOP_ENGINES))
def base_loop_twins(request):
    """(engine deciding through the base loop, its sequential twin)."""
    build = BASE_LOOP_ENGINES[request.param]
    return sequential_decide(build()), build()


def _mixed_items(engine, bad_start=None):
    """Commits (single- and cross-partition), a conflict loser, a
    read-only request, a client abort and — given ``bad_start``, a
    committed transaction's start — an abort that must raise."""
    starts = [engine.begin() for _ in range(6)]
    items = [
        req(starts[0], writes=[0, 1, 2]),
        req(starts[1], writes=[1], reads=[1]),  # loses to starts[0]
        req(starts[2], writes=[4]),
        starts[3],  # client abort
        req(starts[4], reads=[7]),  # read-only
        req(starts[5], writes=[5, 9], reads=[5]),
    ]
    if bad_start is not None:
        items.insert(3, bad_start)
    return items


def _sequential(engine, items):
    """Per-item commit()/abort() results; None where the call raised."""
    results = []
    for item in items:
        if isinstance(item, int):
            try:
                engine.abort(item)
            except ValueError:
                results.append(None)
                continue
            results.append(CommitResult(False, item, reason=CLIENT_ABORT))
        else:
            results.append(engine.commit(item))
    return results


class TestDefaultBatchLoop:
    def test_partitioned_oracle_inherits_the_default_loop(self):
        assert PartitionedOracle._decide_batch is CommitEngine._decide_batch

    def test_decide_batch_returns_the_per_item_results(self, base_loop_twins):
        engine, twin = base_loop_twins
        results = engine.decide_batch(_mixed_items(engine))
        expected = _sequential(twin, _mixed_items(twin))
        assert len(results) == 6
        assert results == expected
        assert [r.committed for r in results] == [
            True, False, True, False, True, True,
        ]
        assert engine.stats == twin.stats

    def test_a_raising_item_gets_none_and_the_rest_decide(
        self, base_loop_twins
    ):
        engine, twin = base_loop_twins
        done = []
        for target in (engine, twin):
            start = target.begin()
            assert target.commit(req(start, writes=[8])).committed
            done.append(start)
        items = _mixed_items(engine, bad_start=done[0])
        payload_commits, payload_aborts, errors, results = [], [], [], []
        commits, aborts, rows_checked, rows_updated = engine._decide_batch(
            items, payload_commits, payload_aborts, errors, results
        )
        expected = _sequential(twin, _mixed_items(twin, bad_start=done[1]))
        assert results == expected
        assert results[3] is None
        assert [start for start, _ in errors] == [done[0]]
        assert isinstance(errors[0][1], ValueError)
        assert (commits, aborts) == (4, 2)
        assert payload_aborts == [items[1].start_ts, items[4]]
        assert [p[:2] for p in payload_commits] == [
            (r.start_ts, r.commit_ts)
            for r in expected
            if r is not None and r.commit_ts is not None
        ]
        assert rows_updated == 3 + 1 + 2
        assert rows_checked > 0
        assert engine.stats == twin.stats


# ----------------------------------------------------------------------
# WAL recovery hooks: every engine is HA-capable
# ----------------------------------------------------------------------

class TestRecoveryContract:
    def test_group_record_replay_rebuilds_commit_table(self, kind):
        wal = BookKeeperWAL()
        engine = make_engine(kind, wal=wal)
        starts = [engine.begin() for _ in range(6)]
        engine.decide_batch(
            [
                req(starts[0], writes=["a"]),
                req(starts[1], writes=["b"]),
                req(starts[2], writes=["a"], reads=["a"]),  # loser
                starts[3],                     # client abort
                req(starts[4], writes=["c"], reads=["a"]),
            ]
        )
        wal.flush()

        recovered = make_engine(kind)
        replayed = recovered.recover_from(wal)
        assert replayed >= 1
        src, dst = engine.commit_table, recovered.commit_table
        assert sorted(dst.snapshot_entries()) == sorted(src.snapshot_entries())
        # No timestamp reuse: the recovered TSO starts above everything
        # it replayed.
        assert recovered.begin() > max(
            cts for kind_, _, cts in src.snapshot_entries() if cts is not None
        )

    def test_sequential_records_replay_too(self, kind):
        wal = BookKeeperWAL()
        engine = make_engine(kind, wal=wal)
        s1, s2 = engine.begin(), engine.begin()
        engine.commit(req(s1, writes=["x"]))
        engine.abort(s2)
        wal.flush()

        recovered = make_engine(kind)
        recovered.recover_from(wal)
        assert recovered.commit_table.is_committed(s1)
        assert recovered.commit_table.is_aborted(s2)


# ----------------------------------------------------------------------
# frontend integration: the stack is protocol-agnostic
# ----------------------------------------------------------------------

class TestFrontendIntegration:
    def test_batched_flush_settles_futures(self, kind):
        frontend = OracleFrontend(make_engine(kind), max_batch=8)
        f1 = frontend.submit_commit(req(frontend.begin(), writes=["x"]))
        f2 = frontend.submit_commit(
            req(frontend.begin(), writes=["x"], reads=["x"])
        )
        frontend.flush()
        assert f1.result().committed
        assert not f2.result().committed

    def test_read_only_fast_path_notifies_active_tracker(self):
        # SSI tracks active begins for its prune horizon; the frontend
        # must release a start it settles on the read-only fast path,
        # or the horizon pins and footprints leak (the E23 0.1x bug).
        engine = make_engine("ssi")
        frontend = OracleFrontend(engine, max_batch=4)
        start = frontend.begin()
        assert start in engine._active_starts
        frontend.submit_commit(req(start))
        assert start not in engine._active_starts

    def test_ssi_readers_are_not_fast_pathed(self):
        # naive_read_only=True: a reader *with a read set* must reach
        # the engine (it is an rw-edge source), so its future resolves
        # only at the flush.
        engine = make_engine("ssi")
        frontend = OracleFrontend(engine, max_batch=8)
        fut = frontend.submit_commit(
            req(frontend.begin(), reads=["x"])
        )
        assert not fut.done
        frontend.flush()
        assert fut.result().committed
