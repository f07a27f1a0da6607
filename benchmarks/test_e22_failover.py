"""E22 — high-availability serving: warm failover + overload shedding.

Not a paper figure: Appendix A only *claims* the status oracle can be
restarted from the WAL ("another fresh instance ... could still
recreate the memory state").  This benchmark measures the two numbers
a deployment of that claim actually lives on:

* **Failover leg** — a warm standby that tails the shared WAL takes
  over in O(delta): at >= 10k durable WAL records the warm takeover is
  >= 5x faster wall-clock than a cold full-log replay (typically one to
  two orders of magnitude — the delta is whatever became durable since
  the last tail poll, and the tier polls after every sync, so it is
  independent of history length).  Timestamps are never
  reused across the failover.
* **Overload leg** — with ``max_queue_depth`` admission control and
  client retry/backoff, offering 2x the measured closed-loop capacity
  sustains >= 0.8x of the 1x-offered throughput with the queue depth
  bounded the whole run — load shedding, not congestion collapse.

Set ``REPRO_BENCH_SMOKE=1`` (the ``make bench-smoke`` target) for a
tiny-sized sanity run with correspondingly relaxed bars.
"""

import os

import pytest

from repro.bench import format_table
from repro.bench.snapshot import record
from repro.core.status_oracle import CommitRequest
from repro.server import ReplicatedFrontend, ReplicatedOracleFacade
from repro.sim.frontend_sim import GroupCommitSim

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Failover leg: durable WAL records before the leader dies.
WAL_RECORDS = 2_000 if SMOKE else 12_000
#: Bound on the warm takeover delta, in records.  The replica set tails
#: every WAL sync itself, so the delta is what the last sync left
#: un-polled: nothing, after a synchronous commit.
POLL_EVERY = 500
WARM_BAR = 2.0 if SMOKE else 5.0

#: Overload leg sizing.
MEASURE = 0.06 if SMOKE else 0.25
WARMUP = 0.02 if SMOKE else 0.05
QUEUE_DEPTH = 256
SUSTAIN_BAR = 0.7 if SMOKE else 0.8


def _load_replica_set(warm):
    """Drive WAL_RECORDS committed writes through a replica set.

    The writes go through the synchronous
    :class:`~repro.server.ha.ReplicatedOracleFacade`, one durable
    group-commit record per decision.  Warm standbys tail the shared
    WAL after every sync the replica set makes — here, inside each
    commit call once its record is durable — so the loader schedules no
    polls of its own.  Returns the facade; ``.replicated`` is the
    replica set."""
    rs = ReplicatedFrontend(num_hosts=2, level="wsi", warm=warm)
    oracle = ReplicatedOracleFacade(rs)
    for i in range(WAL_RECORDS):
        ts = oracle.begin()
        oracle.commit(CommitRequest(ts, write_set=frozenset({f"row{i}"})))
    return oracle


@pytest.mark.figure("e22")
def test_e22_warm_failover_speedup(print_header):
    print_header(
        "E22 — warm-standby takeover vs cold full-log replay (wall clock)"
    )
    rows = []
    results = {}
    for mode, warm in (("cold", False), ("warm", True)):
        oracle = _load_replica_set(warm)
        rs = oracle.replicated
        # every timestamp the old regime issued (begins + commit ts)
        table = rs.active_host().oracle.commit_table
        used = set(table._commits) | set(table._commits.values())
        rs.kill_active()
        host = rs.active_host()
        results[mode] = host
        # service continues, and no timestamp is ever reissued
        for i in range(50):
            ts = oracle.begin()
            assert ts not in used
            used.add(ts)
            result = oracle.commit(
                CommitRequest(ts, write_set=frozenset({f"post{i}"}))
            )
            if result.committed:
                assert result.commit_ts not in (used - {ts})
                used.add(result.commit_ts)
        rows.append(
            (
                mode,
                WAL_RECORDS,
                host.recovered_records,
                host.standby_records,
                f"{1000 * host.takeover_seconds:.2f}",
            )
        )
    ratio = (
        results["cold"].takeover_seconds / results["warm"].takeover_seconds
    )
    print(
        format_table(
            ["takeover", "log records", "replayed", "pre-applied", "ms"],
            rows,
            title=(
                f"{WAL_RECORDS} durable group-commit-era records, "
                "standby tails every sync"
            ),
        )
    )
    print(
        f"  warm over cold: {ratio:.1f}x faster takeover "
        f"(acceptance bar: {WARM_BAR}x)"
    )
    # the warm standby replayed only the un-polled suffix
    assert results["warm"].recovered_records <= POLL_EVERY
    assert results["cold"].recovered_records >= WAL_RECORDS
    assert ratio >= WARM_BAR
    record(
        "e22",
        warm_over_cold=ratio,
        wal_records=WAL_RECORDS,
        warm_takeover_ms=1000 * results["warm"].takeover_seconds,
        cold_takeover_ms=1000 * results["cold"].takeover_seconds,
        warm_delta_records=results["warm"].recovered_records,
    )


def _offered_run(offered_tps):
    return GroupCommitSim(
        level="wsi",
        batch_size=32,
        num_clients=4,
        warmup=WARMUP,
        measure=MEASURE,
        seed=11,
        offered_tps=offered_tps,
        max_queue_depth=QUEUE_DEPTH,
    ).run()


@pytest.mark.figure("e22")
def test_e22_overload_sustains_throughput(print_header):
    print_header(
        "E22b — admission control under 2x-capacity offered load "
        "(simulated time)"
    )
    # Self-calibrate: closed-loop capacity of this configuration.
    capacity = GroupCommitSim(
        level="wsi",
        batch_size=32,
        num_clients=4,
        outstanding_per_client=32,
        warmup=WARMUP,
        measure=MEASURE,
        seed=11,
    ).run().throughput_tps
    runs = {
        "1x": _offered_run(capacity),
        "2x": _offered_run(2 * capacity),
    }
    rows = [
        (
            label,
            f"{r.offered_tps:,.0f}",
            f"{r.throughput_tps:,.0f}",
            r.max_inflight_seen,
            r.overload_rejections,
            r.shed_requests,
        )
        for label, r in runs.items()
    ]
    sustain = runs["2x"].throughput_tps / runs["1x"].throughput_tps
    print(
        format_table(
            ["offered", "tps offered", "tps served", "max queue", "rejects", "shed"],
            rows,
            title=(
                f"closed-loop capacity {capacity:,.0f} tps, "
                f"max_queue_depth={QUEUE_DEPTH}"
            ),
        )
    )
    print(
        f"  2x-over-1x sustain: {sustain:.2f}x "
        f"(acceptance bar: {SUSTAIN_BAR}x; collapse would be << 1)"
    )
    for r in runs.values():
        # bounded the whole run — shedding, not unbounded queueing
        assert 0 < r.max_inflight_seen <= QUEUE_DEPTH
    # the overloaded tier actually shed (or rejected-then-absorbed) load
    assert runs["2x"].overload_rejections > 0
    assert sustain >= SUSTAIN_BAR
    record(
        "e22",
        capacity_tps=capacity,
        overload_sustain=sustain,
        served_1x_tps=runs["1x"].throughput_tps,
        served_2x_tps=runs["2x"].throughput_tps,
        max_queue_depth_seen=runs["2x"].max_inflight_seen,
    )


@pytest.mark.figure("e22")
def test_e22_no_ts_reuse_under_overload(print_header):
    """Zero-tolerance leg: shed and retried requests never leak a
    timestamp into reuse — every begin and every commit timestamp
    across overload/backoff/resubmit is unique."""
    from repro.core.errors import Overloaded
    from repro.core.status_oracle import make_oracle
    from repro.server import OracleFrontend

    print_header("E22c — timestamp uniqueness across overload retries")
    # depth below the count trigger, so admission — not the batch
    # bound — is what pushes back
    frontend = OracleFrontend(
        make_oracle("wsi"), max_batch=8, max_queue_depth=6
    )
    futures = []
    begins = []
    n = 200 if SMOKE else 2_000
    for i in range(n):
        ts = frontend.begin()
        begins.append(ts)
        request = CommitRequest(ts, write_set=frozenset({f"k{i % 64}"}))
        while True:
            try:
                futures.append(frontend.submit_commit(request))
                break
            except Overloaded:
                frontend.flush()  # the deployment's drive loop drains
    frontend.flush()
    commit_ts = [
        f.commit_ts for f in futures if f.outcome() == "committed"
    ]
    seen = begins + commit_ts
    assert len(seen) == len(set(seen))
    assert frontend.stats.overload_rejections > 0
    print(
        f"  {len(begins)} begins + {len(commit_ts)} commit timestamps "
        f"all distinct across {frontend.stats.overload_rejections} "
        f"overload rejections"
    )
