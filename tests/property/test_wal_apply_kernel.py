"""Property test: the status oracle's WAL-apply kernel against the
per-decision rule it replaced.

``StatusOracle.apply_wal_record`` applies a whole record's decisions in
one inlined pass when ``lastCommit`` is a plain ``dict`` and nobody is
subscribed to the commit table, and through the commit table's record
methods otherwise.  Either way it must be the rule below, decision for
decision: same returned timestamp, same commit table, same
``lastCommit`` (entries and order), the same exception type and the
same partial state when a poison decision — commit after abort,
``commit_ts <= start_ts``, abort after commit — stops a record half way.
Logs come in order, shuffled, and with records applied twice.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.commit_table import ClientCommitView
from repro.core.errors import RecoveryError
from repro.core.status_oracle import make_oracle
from repro.wal.bookkeeper import GROUP_COMMIT_RECORD, WALRecord


def reference_apply(oracle, record) -> int:
    """The per-decision rule: ``record_commit`` + per-row ``max`` store
    per commit, ``record_abort`` unless already aborted per abort."""
    ct, lc = oracle.commit_table, oracle._last_commit

    def commit(start_ts, commit_ts, rows):
        ct.record_commit(start_ts, commit_ts)
        for row in rows:
            lc[row] = max(lc.get(row, 0), commit_ts)
        return commit_ts

    def abort(start_ts):
        if not ct.is_aborted(start_ts):
            ct.record_abort(start_ts)
        return start_ts

    if record.kind == "commit":
        return commit(*record.payload)
    if record.kind == "abort":
        return abort(*record.payload)
    if record.kind == GROUP_COMMIT_RECORD:
        commits, aborts = record.payload
        return max([0, *(commit(*c) for c in commits), *map(abort, aborts)])
    if record.kind == "ts-reserve":
        return record.payload
    raise RecoveryError(f"unknown WAL record kind {record.kind!r}")


# Small timestamp and row alphabets so starts collide (commit after
# abort, abort after commit), rows are rewritten out of order, and
# ``commit_ts <= start_ts`` comes up (delta <= 0).
starts = st.integers(min_value=1, max_value=24)
decision = st.tuples(
    starts,
    st.integers(min_value=-2, max_value=12),
    st.frozensets(st.integers(min_value=0, max_value=7), max_size=4),
).map(lambda d: (d[0], d[0] + d[1], tuple(d[2])))
record = st.one_of(
    decision.map(lambda d: WALRecord("commit", d, 32)),
    starts.map(lambda s: WALRecord("abort", (s,), 32)),
    st.tuples(
        st.lists(decision, max_size=5), st.lists(starts, max_size=3)
    ).map(lambda p: WALRecord(
        GROUP_COMMIT_RECORD, (tuple(p[0]), tuple(p[1])), 64
    )),
    st.integers(min_value=0, max_value=40).map(
        lambda hw: WALRecord("ts-reserve", hw, 8)
    ),
)


@st.composite
def logs(draw):
    log = draw(st.lists(record, max_size=14))
    order = draw(st.sampled_from(["in order", "shuffled", "duplicated"]))
    if order == "shuffled":
        return draw(st.permutations(log))
    if order == "duplicated" and log:
        again = draw(st.lists(st.sampled_from(log), max_size=len(log)))
        return draw(st.permutations(log + again))
    return log


def outcome(apply, oracle, rec):
    try:
        return apply(oracle, rec)
    except Exception as exc:  # the type is what must agree
        return type(exc)


def state(oracle):
    ct = oracle.commit_table
    return dict(ct._commits), set(ct._aborted), list(oracle._last_commit.items())


@pytest.mark.parametrize("with_view", [False, True], ids=["no-view", "view"])
@pytest.mark.parametrize("lastcommit", ["dict", "array"])
@given(log=logs())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_per_decision_rule(lastcommit, with_view, log):
    kernel = make_oracle("wsi", lastcommit=lastcommit)
    reference = make_oracle("wsi", lastcommit=lastcommit)
    view = ClientCommitView(kernel.commit_table) if with_view else None
    for rec in log:
        got = outcome(lambda o, r: o.apply_wal_record(r), kernel, rec)
        assert got == outcome(reference_apply, reference, rec), rec
        # Checked after every record, so a poison decision's partial
        # effects (earlier decisions of its record applied, its own
        # none) must match too; replay then goes on over the rest.
        assert state(kernel) == state(reference), rec
        if view is not None:
            # A subscribed replica sees every decision the table holds.
            assert view._commits == kernel.commit_table._commits
            assert view._aborted == kernel.commit_table._aborted


def test_a_subscriber_sees_every_decision_in_log_order():
    """With a subscriber attached the kernel steps aside: every decision
    reaches the replica feed, in the record's order."""
    oracle = make_oracle("wsi", lastcommit="dict")
    seen = []
    oracle.commit_table.subscribe(lambda *event: seen.append(event))
    commits = ((1, 3, (7,)), (2, 4, (7, 8)))
    rec = WALRecord(GROUP_COMMIT_RECORD, (commits, (5,)), 64)
    assert oracle.apply_wal_record(rec) == 5
    assert seen == [("commit", 1, 3), ("commit", 2, 4), ("abort", 5, None)]
    assert oracle.last_commit(7) == 4 and oracle.last_commit(8) == 4
