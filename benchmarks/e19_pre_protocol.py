"""E19's baseline: the partitioned batch engine the cross-partition
batch protocol replaced, kept here as a benchmark fixture.

``install_pre_protocol_engine(oracle)`` installs it on one
:class:`~repro.core.partitioned.PartitionedOracle` *instance* as its
batch-decide hook (like
:func:`~repro.bench.frontend_bench.sequential_decide`), before the
frontend is built.  A flush is processed as runs of consecutive
single-partition (plus read-only and client-abort) items, decided with
one decide-and-stage round per shard through the oracle's executor;
every **cross-partition** request breaks the run and takes a
per-request two-phase decision in place — one share-request
construction and one ``_check`` visit per involved partition, one
``tso.next()`` and one commit-table call per request.

Decisions and final state equal the batch protocol's; the conflict row
and the rows-examined count of a conflicting cross request may differ,
because a share request is scanned in its frozenset's order rather
than in footprint order.  Nowait items only (a request or a client
abort's start timestamp; no futures, no results list).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.status_oracle import CommitRequest, CommitResult


def _shard_decision_round(oracle, pid: int, group: List[list],
                          reason_tag: str):
    """One shard's decide-and-stage round: decide a run of
    single-partition requests against this shard alone, writing each
    entry's decision slot in place (entries belong to one shard group,
    so the writes are disjoint across rounds)."""
    partition = oracle.partitions[pid]
    lock = oracle._shard_locks[pid]
    wsi = oracle.level == "wsi"

    def shard_round() -> None:
        with lock:
            lc_get = partition._last_commit.get
            pending: Set = set()
            pending_update = pending.update
            shard_checked = 0
            for entry in group:
                req = entry[1]
                start = req.start_ts
                conflict_row = None
                for row in (req.read_set if wsi else req.write_set):
                    shard_checked += 1
                    if row in pending:
                        conflict_row = row
                        break
                    last = lc_get(row)
                    if last is not None and last > start:
                        conflict_row = row
                        break
                if conflict_row is not None:
                    entry[3] = ("abort", reason_tag, conflict_row)
                else:
                    entry[3] = True
                    pending_update(req.write_set)
            partition.stats.rows_checked += shard_checked

    return shard_round


def install_pre_protocol_engine(oracle):
    """Install the pre-protocol engine as ``oracle``'s batch-decide
    hook; returns ``oracle``."""
    tso = oracle._tso
    ct = oracle.commit_table
    partitions = oracle.partitions
    st = oracle.stats
    wsi = oracle.level == "wsi"
    reason_tag = "rw-conflict" if wsi else "ww-conflict"
    split = oracle._split
    single_partition_of = oracle._single_partition_of
    rows_to_check = oracle.rows_to_check
    executor = oracle._executor

    def commit_cross_per_request(request):
        # One share request and one _check visit per involved partition.
        check_shares = split(rows_to_check(request))
        write_shares = split(request.write_set)
        for pid in sorted(set(check_shares) | set(write_shares)):
            share_request = CommitRequest(
                request.start_ts,
                write_set=frozenset(write_shares.get(pid, ())),
                read_set=(
                    frozenset(check_shares.get(pid, ())) if wsi
                    else frozenset()
                ),
            )
            conflict = partitions[pid]._check(share_request)
            if conflict is not None:
                reason, row = conflict
                st.aborts += 1
                st.conflict_aborts += 1
                oracle.cross_partition_aborts += 1
                ct.record_abort(request.start_ts)
                return CommitResult(
                    False, request.start_ts, reason=reason, conflict_row=row
                )
        commit_ts = tso.next()
        for pid, rows in write_shares.items():
            partitions[pid]._install(rows, commit_ts)
            st.rows_updated += len(rows)
        ct.record_commit(request.start_ts, commit_ts)
        st.commits += 1
        oracle.cross_partition_commits += 1
        return CommitResult(True, request.start_ts, commit_ts=commit_ts)

    def decide(batch, payload_commits, payload_aborts, errors, results=None):
        if results is not None:
            raise TypeError("the pre-protocol engine returns no results list")
        oracle.last_flush_rounds = None  # no protocol rounds to report
        pc_append = payload_commits.append
        pa_append = payload_aborts.append
        commits = conflict_aborts = client_aborts = ro_commits = 0
        single_commits = single_aborts = rows_updated = 0
        checked_at_start = sum(p.stats.rows_checked for p in partitions)
        # One run entry per item: [kind, req, pid, decision].
        run: List[list] = []

        def flush_run():
            nonlocal commits, conflict_aborts, client_aborts, ro_commits
            nonlocal single_commits, single_aborts, rows_updated
            if not run:
                return
            groups: Dict[int, List[list]] = {}
            for entry in run:
                if entry[0] == "sp":
                    groups.setdefault(entry[2], []).append(entry)
            executor.run([
                _shard_decision_round(oracle, pid, group, reason_tag)
                for pid, group in groups.items()
            ])
            nxt = tso._next
            reserved = tso._reserved_until
            issued = 0
            try:
                for kind, req, pid, decision in run:
                    if kind == "ca":
                        try:
                            ct.record_abort(req)
                        except Exception as exc:
                            errors.append((req, exc))
                            continue
                        client_aborts += 1
                        pa_append(req)
                        continue
                    if kind == "ro":
                        ro_commits += 1
                        continue
                    start = req.start_ts
                    if decision is not True:
                        try:
                            ct.record_abort(start)
                        except Exception as exc:
                            errors.append((start, exc))
                            continue
                        conflict_aborts += 1
                        single_aborts += 1
                        pa_append(start)
                        continue
                    if nxt > reserved:
                        tso._next = nxt
                        tso._reserve()
                        reserved = tso._reserved_until
                    cts = nxt
                    nxt += 1
                    issued += 1
                    ws = req.write_set
                    partitions[pid]._last_commit.update(dict.fromkeys(ws, cts))
                    rows_updated += len(ws)
                    try:
                        ct.record_commit(start, cts)
                    except Exception as exc:
                        errors.append((start, exc))
                        continue
                    commits += 1
                    single_commits += 1
                    pc_append((start, cts, ws))
            finally:
                tso._next = nxt
                tso._issued += issued
            run.clear()

        cross_commits = cross_aborts = cross_rows_updated = 0
        try:
            for req in batch:
                if req.__class__ is not CommitRequest:
                    if req.__class__ is tuple:
                        raise TypeError("nowait items only")
                    run.append(["ca", req, -1, None])
                    continue
                if not req.write_set:
                    run.append(["ro", req, -1, None])
                    continue
                pid = single_partition_of(req)
                if pid >= 0:
                    run.append(["sp", req, pid, None])
                    continue
                # Cross-partition request: decide in place (two-phase),
                # after everything queued before it has taken effect.
                flush_run()
                try:
                    result = commit_cross_per_request(req)
                except Exception as exc:
                    errors.append((req.start_ts, exc))
                    continue
                if result.committed:
                    cross_commits += 1
                    cross_rows_updated += len(req.write_set)
                    pc_append((req.start_ts, result.commit_ts, req.write_set))
                else:
                    cross_aborts += 1
                    pa_append(req.start_ts)
            flush_run()
        finally:
            st.commits += commits + ro_commits
            st.read_only_commits += ro_commits
            st.aborts += conflict_aborts + client_aborts
            st.conflict_aborts += conflict_aborts
            st.rows_updated += rows_updated
            oracle.single_partition_commits += single_commits
            oracle.single_partition_aborts += single_aborts
        rows_checked = (
            sum(p.stats.rows_checked for p in partitions) - checked_at_start
        )
        return (
            commits + ro_commits + cross_commits,
            conflict_aborts + client_aborts + cross_aborts,
            rows_checked,
            rows_updated + cross_rows_updated,
        )

    oracle._decide_batch = decide
    return oracle
