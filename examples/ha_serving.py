#!/usr/bin/env python3
"""The high-availability serving tier surviving a leader crash.

Appendix A's failure story, end to end at the layer clients actually
talk to: three frontend candidates share one replicated WAL; the
leader batches commit requests (group commit: a batch settles once its
WAL record is synced); warm standbys tail the WAL after every sync.
Mid-batch, the leader dies — and every in-flight request still
resolves: flushed batches were durable already, and the open batch is
transparently moved to the promoted standby, each request with its
original timestamp and its original future (bounded exponential
backoff, no reuse, no double-decide).  Admission control keeps the
queue bounded throughout.

Run:  PYTHONPATH=src python examples/ha_serving.py
"""

from repro.core.errors import Overloaded
from repro.core.status_oracle import CommitRequest
from repro.server import ReplicatedFrontend, RetryPolicy


def main() -> None:
    rf = ReplicatedFrontend(
        num_hosts=3,
        level="wsi",
        warm=True,
        max_batch=32,
        # bound below the batch size, so a burst hits admission before
        # the count trigger can drain it
        max_queue_depth=24,
        retry_policy=RetryPolicy(max_attempts=5, base_delay=0.001),
    )

    # --- steady state: a batch decided, synced, settled ---------------
    print("=== steady state ===")
    futures = []
    for i in range(8):
        ts = rf.begin()
        futures.append(
            rf.submit_commit(CommitRequest(ts, write_set=frozenset({f"row{i}"})))
        )
    print(f"  submitted 8 requests; none settled yet (group commit):"
          f" {sum(f.done for f in futures)} done")
    rf.flush()  # batch decided + WAL synced -> futures settle
    print(f"  after flush: {sum(f.done for f in futures)}/8 settled, "
          f"all {'committed' if all(f.committed for f in futures) else '?'}")

    # --- the standbys stay warm on their own --------------------------
    lags = [host.standby_lag for host in rf.hosts if not host.is_active]
    print(f"  standbys tailed that sync: lag {lags} ledger entries")

    # --- the leader dies mid-batch -----------------------------------
    print("\n=== leader crash mid-batch ===")
    leader = rf.active_host()
    inflight = []
    for i in range(5):
        ts = rf.begin()
        inflight.append(
            rf.submit_commit(CommitRequest(ts, write_set=frozenset({f"hot{i}"})))
        )
    print(f"  5 requests in the open batch of host {leader.host_id}; "
          f"killing it...")
    rf.kill_active()
    new_leader = rf.active_host()
    print(f"  host {new_leader.host_id} promoted: replayed only "
          f"{new_leader.recovered_records} record(s) at takeover "
          f"({new_leader.standby_records} were pre-applied while standing by)")
    print(f"  {rf.retried_requests} in-flight requests resubmitted "
          f"with their original timestamps")
    retries = [rf.retries[f.start_ts] for f in inflight]
    rf.flush()
    outcomes = [f.outcome() for f in inflight]
    print(f"  all settled after failover: {outcomes}")
    print(f"  per-request retry counts:   {retries}")

    # --- admission control under a burst -----------------------------
    print("\n=== overload burst ===")
    accepted = rejected = 0
    for i in range(200):
        ts = rf.begin()
        try:
            rf.submit_commit(CommitRequest(ts, write_set=frozenset({f"b{i}"})))
            accepted += 1
        except Overloaded as exc:
            rejected += 1
            if rejected == 1:
                print(f"  typed pushback: {exc}")
            rf.flush()  # the drive loop drains; a real client backs off
    rf.flush()
    stats = rf.active_frontend.stats
    print(f"  burst of 200: {accepted} accepted, {rejected} shed; "
          f"queue high-water {stats.max_inflight_seen} (bound 24)")
    rf.close()
    print("\nno timestamp reused, no request stranded, queue bounded.")


if __name__ == "__main__":
    main()
