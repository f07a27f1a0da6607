"""Unit tests for Algorithm 3 (the bounded-memory oracle with Tmax)."""

import pytest

from repro.core.status_oracle import (
    BoundedStatusOracle,
    CommitRequest,
    SnapshotIsolationOracle,
    WriteSnapshotIsolationOracle,
)


def req(start, writes=(), reads=()):
    return CommitRequest(
        start, write_set=frozenset(writes), read_set=frozenset(reads)
    )


class TestEviction:
    def test_capacity_enforced(self):
        oracle = BoundedStatusOracle(policy="si", max_rows=2)
        for row in ("a", "b", "c"):
            ts = oracle.begin()
            assert oracle.commit(req(ts, writes={row})).committed
        assert oracle.lastcommit_size == 2
        assert oracle.last_commit("a") is None  # evicted (oldest)
        assert oracle.last_commit("c") is not None

    def test_tmax_tracks_evicted_maximum(self):
        oracle = BoundedStatusOracle(policy="si", max_rows=1)
        ts1 = oracle.begin()
        r1 = oracle.commit(req(ts1, writes={"a"}))
        ts2 = oracle.begin()
        oracle.commit(req(ts2, writes={"b"}))  # evicts a
        assert oracle.tmax == r1.commit_ts

    def test_tmax_zero_before_eviction(self):
        oracle = BoundedStatusOracle(policy="si", max_rows=100)
        ts = oracle.begin()
        oracle.commit(req(ts, writes={"a"}))
        assert oracle.tmax == 0

    def test_rewrite_refreshes_lru_position(self):
        oracle = BoundedStatusOracle(policy="si", max_rows=2)
        for row in ("a", "b"):
            ts = oracle.begin()
            oracle.commit(req(ts, writes={row}))
        # rewrite "a" so it becomes most-recent; then "c" evicts "b"
        ts = oracle.begin()
        oracle.commit(req(ts, writes={"a"}))
        ts = oracle.begin()
        oracle.commit(req(ts, writes={"c"}))
        assert oracle.last_commit("a") is not None
        assert oracle.last_commit("b") is None


class TestPessimisticAbort:
    def test_line8_unknown_row_old_snapshot_aborts(self):
        oracle = BoundedStatusOracle(policy="si", max_rows=1)
        stale = oracle.begin()  # old start timestamp
        # fill and evict so Tmax rises above `stale`
        for row in ("a", "b", "c"):
            ts = oracle.begin()
            oracle.commit(req(ts, writes={row}))
        assert oracle.tmax > stale
        result = oracle.commit(req(stale, writes={"zz"}))  # row unknown
        assert not result.committed
        assert result.reason == "tmax"
        assert oracle.stats.tmax_aborts == 1

    def test_fresh_snapshot_unknown_row_commits(self):
        oracle = BoundedStatusOracle(policy="si", max_rows=1)
        for row in ("a", "b", "c"):
            ts = oracle.begin()
            oracle.commit(req(ts, writes={row}))
        fresh = oracle.begin()  # starts above Tmax
        assert fresh > oracle.tmax
        assert oracle.commit(req(fresh, writes={"zz"})).committed

    def test_known_row_not_subject_to_tmax(self):
        # A row still in memory uses the precise check even for old txns.
        oracle = BoundedStatusOracle(policy="si", max_rows=10)
        stale = oracle.begin()
        ts = oracle.begin()
        oracle.commit(req(ts, writes={"other"}))
        # "mine" was never written: lastCommit is None and Tmax == 0,
        # so the stale transaction can still commit.
        assert oracle.commit(req(stale, writes={"mine"})).committed


class TestSafetyOneSided:
    """Eviction may add aborts but never admits a true conflict."""

    @pytest.mark.parametrize("policy", ["si", "wsi"])
    def test_committed_set_is_conflict_free(self, policy):
        # Tiny lastCommit (heavy eviction) must never let two genuinely
        # conflicting transactions both commit: check every committed
        # pair against the offline predicates of repro.core.conflicts.
        import random

        from repro.core.conflicts import TxnFootprint, conflicts_under

        rng = random.Random(11)
        oracle = BoundedStatusOracle(policy=policy, max_rows=3)
        rows = [f"r{i}" for i in range(12)]
        committed = []
        open_txns = []
        for _ in range(400):
            if open_txns and (rng.random() < 0.5 or len(open_txns) >= 5):
                start_ts, wset, rset = open_txns.pop(
                    rng.randrange(len(open_txns))
                )
                result = oracle.commit(req(start_ts, wset, rset))
                if result.committed:
                    committed.append(
                        TxnFootprint(
                            txn_id=start_ts,
                            start_ts=start_ts,
                            commit_ts=result.commit_ts,
                            read_set=rset,
                            write_set=wset,
                        )
                    )
            else:
                wset = frozenset(rng.sample(rows, rng.randint(1, 3)))
                rset = frozenset(rng.sample(rows, rng.randint(0, 3)))
                open_txns.append((oracle.begin(), wset, rset))
        assert len(committed) > 50  # the workload actually commits things
        for i, a in enumerate(committed):
            for b in committed[i + 1:]:
                assert not conflicts_under(policy, a, b), (a, b)


class TestSizing:
    def test_rows_for_memory_appendix_a(self):
        # Appendix A: 32 bytes/row -> 1 GB holds 32M rows.
        assert BoundedStatusOracle.rows_for_memory(2 ** 30) == 2 ** 30 // 32
        assert BoundedStatusOracle.rows_for_memory(32) == 1
        assert BoundedStatusOracle.rows_for_memory(0) == 1  # floor

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            BoundedStatusOracle(policy="2pl")
        with pytest.raises(ValueError):
            BoundedStatusOracle(max_rows=0)


class TestWSIPolicy:
    def test_wsi_bounded_checks_read_set(self):
        oracle = BoundedStatusOracle(policy="wsi", max_rows=100)
        t1, t2 = oracle.begin(), oracle.begin()
        assert oracle.commit(req(t1, writes={"x"})).committed
        result = oracle.commit(req(t2, writes={"y"}, reads={"x"}))
        assert not result.committed

    def test_wsi_bounded_tmax_on_read_rows(self):
        oracle = BoundedStatusOracle(policy="wsi", max_rows=1)
        stale = oracle.begin()
        for row in ("a", "b"):
            ts = oracle.begin()
            oracle.commit(req(ts, writes={row}))
        result = oracle.commit(req(stale, writes={"w"}, reads={"unknown"}))
        assert not result.committed
        assert result.reason == "tmax"


class TestArrayBackendEquivalence:
    """The bounded oracle's eviction machinery (LRU reinsertion, Tmax,
    popitem-from-the-cold-end) must behave identically on the array
    backend — same decisions, same Tmax trajectory, same surviving
    entries in the same LRU order."""

    @staticmethod
    def _run(lastcommit, policy="si", batched=False):
        import random

        oracle = BoundedStatusOracle(
            policy=policy, max_rows=16, lastcommit=lastcommit
        )
        rng = random.Random(7)
        trace = []
        pending = []
        for step in range(400):
            start = oracle.begin()
            writes = frozenset(rng.sample(range(64), rng.randint(1, 4)))
            reads = frozenset(rng.sample(range(64), rng.randint(0, 3)))
            request = req(start, writes=writes, reads=reads)
            if batched:
                pending.append(request)
                if len(pending) >= 8:
                    for result in oracle.decide_batch(pending):
                        trace.append(
                            (result.committed, result.commit_ts,
                             result.reason, result.conflict_row)
                        )
                    pending = []
            else:
                result = oracle.commit(request)
                trace.append(
                    (result.committed, result.commit_ts,
                     result.reason, result.conflict_row)
                )
            trace.append(oracle.tmax)
        if pending:
            for result in oracle.decide_batch(pending):
                trace.append(
                    (result.committed, result.commit_ts,
                     result.reason, result.conflict_row)
                )
        return (
            trace,
            oracle.tmax,
            list(oracle._last_commit.items()),
            oracle.stats.rows_checked,
            oracle.stats.tmax_aborts,
        )

    @pytest.mark.parametrize("policy", ["si", "wsi"])
    def test_per_request_eviction_matches_dict(self, policy):
        assert self._run("array", policy) == self._run("dict", policy)

    @pytest.mark.parametrize("policy", ["si", "wsi"])
    def test_batched_eviction_matches_dict(self, policy):
        assert self._run("array", policy, batched=True) == self._run(
            "dict", policy, batched=True
        )


class TestBoundedRecovery:
    """WAL replay keeps Algorithm 3's bound: the log a bounded oracle
    writes rebuilds its LRU window entry for entry, in LRU order, with
    the same Tmax — cold (``recover_from``) or tailed by a standby."""

    @staticmethod
    def _state(oracle):
        return list(oracle._last_commit.items()), oracle.tmax

    @staticmethod
    def _traffic(oracle, batched):
        import random

        rng = random.Random(11)
        pending = []
        for _ in range(120):
            start = oracle.begin()
            request = req(
                start,
                writes=rng.sample(range(24), rng.randint(1, 3)),
                reads=rng.sample(range(24), rng.randint(0, 2)),
            )
            if batched:
                pending.append(request)
                if len(pending) == 8:
                    oracle.decide_batch(pending)
                    pending = []
            else:
                oracle.commit(request)
            yield

    @pytest.mark.parametrize("lastcommit", ["dict", "array"])
    def test_cold_replay_of_two_row_commits(self, lastcommit):
        from repro.core.status_oracle import make_oracle
        from repro.wal.bookkeeper import BookKeeperWAL

        wal = BookKeeperWAL()
        live = make_oracle(
            "wsi", bounded=True, max_rows=8, wal=wal, lastcommit=lastcommit
        )
        for i in range(40):
            live.commit(req(live.begin(), writes={2 * i, 2 * i + 1}))
        wal.flush()
        assert len(live._last_commit) == 8 and live.tmax == 72
        fresh = make_oracle(
            "wsi", bounded=True, max_rows=8, lastcommit=lastcommit
        )
        fresh.recover_from(wal)
        assert self._state(fresh) == self._state(live)

    @pytest.mark.parametrize("batched", [False, True])
    @pytest.mark.parametrize("lastcommit", ["dict", "array"])
    def test_replay_rebuilds_the_window_and_is_idempotent(
        self, lastcommit, batched
    ):
        from repro.core.status_oracle import make_oracle
        from repro.wal.bookkeeper import BookKeeperWAL, WALTail

        wal = BookKeeperWAL()
        live = make_oracle(
            "wsi", bounded=True, max_rows=8, wal=wal, lastcommit=lastcommit
        )
        standby = make_oracle(
            "wsi", bounded=True, max_rows=8, lastcommit=lastcommit
        )
        tail = WALTail(wal)
        for step, _ in enumerate(self._traffic(live, batched)):
            if step % 5 == 0:
                wal.flush()
                for record in tail.poll():
                    standby.apply_wal_record(record)
        wal.flush()
        for record in tail.poll():
            standby.apply_wal_record(record)
        fresh = make_oracle(
            "wsi", bounded=True, max_rows=8, lastcommit=lastcommit
        )
        fresh.recover_from(wal)
        expected = self._state(live)
        assert live.tmax > 0 and len(live._last_commit) <= 8
        for replica in (fresh, standby):
            assert self._state(replica) == expected
            assert (
                replica.commit_table._commits == live.commit_table._commits
            )
            assert (
                replica.commit_table._aborted == live.commit_table._aborted
            )
        # Re-applying records already applied changes nothing.
        for record in wal.replay():
            fresh.apply_wal_record(record)
        assert self._state(fresh) == expected
