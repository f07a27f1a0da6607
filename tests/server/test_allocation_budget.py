"""Census of what the stack keeps alive per request, in collector terms.

The cyclic collector's cost is set by how many *tracked* objects a full
collection has to walk.  PR 13 took it off the commit path by making the
state kept per decision invisible to it; this suite pins the budgets so
the objects cannot creep back:

* **pending** — tracked objects per in-flight (submitted, un-flushed)
  request: the request's two ``frozenset`` footprints, the
  ``CommitRequest``, the ``CommitFuture`` and the ``(request, future)``
  batch item on the plain path; the ``HAFuture`` on top on the HA path.
* **retained** — tracked objects left per *durable* decision once the
  client dropped its handles: none.  A constant number per WAL record
  (the record, its ledger entries) is fine.

A census is ``gc.get_objects()`` counted by type, taken with the
collector switched off so that nothing is untracked or freed mid-window
except by reference count.  (Self-contained on purpose: the file runs
unchanged against the parent commit, where it fails at 7 / 9 pending.)
"""

import gc
from collections import Counter

import pytest

from repro.analysis.racecheck import active_checker
from repro.core import make_engine
from repro.server import ClientSession, OracleFrontend, ReplicatedFrontend
from repro.wal.bookkeeper import BookKeeperWAL
from repro.wal.ledger import LedgerManager

MAX_BATCH = 32
#: One short of a full batch: nothing flushes inside the pending window.
PENDING = MAX_BATCH - 1
#: Decisions made durable for the retained budget (whole batches).
DURABLE = 8 * MAX_BATCH
#: Tracked objects per in-flight request.
PLAIN_BUDGET = 5
HA_BUDGET = 6
#: Tracked objects a window may add that are not per request: the list
#: of handles, the open batch and its future list, the census itself.
SCAFFOLDING = 8
#: Tracked objects one durable WAL record may keep (today three: the
#: record, the ledger entry and the entry's record list).
PER_RECORD = 4

KEY_KINDS = {
    "int": lambda i: i,
    "str": lambda i: f"row-{i}",
    "tuple": lambda i: (i // 7, i % 7),
}

pytestmark = pytest.mark.skipif(
    active_checker() is not None,
    reason="the race checker's instrumented locks allocate per acquire",
)


def census() -> Counter:
    return Counter(type(obj).__name__ for obj in gc.get_objects())


def collect_until_quiet() -> None:
    """A collection untracks a tuple only once everything inside it is
    untracked, and visits containers before their contents: one pass per
    level of nesting (payload > commits > triple > rows > tuple key)."""
    for _ in range(5):
        gc.collect()


def plain_stack():
    wal = BookKeeperWAL(LedgerManager(num_bookies=3, write_quorum=2, ack_quorum=2))
    engine = make_engine("oracle", level="wsi", wal=wal)
    frontend = OracleFrontend(engine, max_batch=MAX_BATCH)

    def sync():
        frontend.flush()
        wal.flush()

    return frontend, wal, sync


def ha_stack():
    frontend = ReplicatedFrontend(
        num_hosts=3, level="wsi", warm=True, engine="oracle", max_batch=MAX_BATCH
    )

    def sync():
        frontend.flush()
        frontend.standby_catch_up()

    return frontend, frontend.wal, sync


def footprints(make_key, count):
    """Disjoint ``(write_rows, read_rows)`` per request, built up front."""
    return [
        (
            tuple(make_key(10 * i + j) for j in range(4)),
            tuple(make_key(10 * i + j) for j in range(4, 9)),
        )
        for i in range(count)
    ]


@pytest.mark.parametrize("key_kind", sorted(KEY_KINDS))
@pytest.mark.parametrize(
    "build, pending_budget",
    [(plain_stack, PLAIN_BUDGET), (ha_stack, HA_BUDGET)],
    ids=["plain", "ha"],
)
def test_tracked_objects_per_request(build, pending_budget, key_kind):
    frontend, wal, sync = build()
    session = ClientSession(frontend)
    rows = footprints(KEY_KINDS[key_kind], MAX_BATCH + DURABLE)

    # One whole batch through every layer first: ledgers opened, the
    # timestamp reservation written, every lazy one-off paid.
    for start_ts in session.begin_many(MAX_BATCH):
        session.commit(*rows.pop(), start_ts=start_ts)
    sync()
    starts_pending = session.begin_many(PENDING)
    starts_durable = session.begin_many(DURABLE - PENDING)
    records_before = wal.record_count

    was_enabled = gc.isenabled()
    census()  # its own one-offs (ABC caches behind Counter) land outside
    collect_until_quiet()
    gc.disable()
    try:
        before = census()
        handles = [
            session.commit(*rows.pop(), start_ts=start_ts)
            for start_ts in starts_pending
        ]
        pending = census() - before
        assert not any(handle.done for handle in handles)
        assert sum(pending.values()) <= pending_budget * PENDING + SCAFFOLDING, (
            f"{sum(pending.values()) / PENDING:.2f} tracked objects per "
            f"in-flight request (budget {pending_budget}): {dict(pending)}"
        )

        handles.extend(
            session.commit(*rows.pop(), start_ts=start_ts)
            for start_ts in starts_durable
        )
        sync()
        assert all(handle.committed for handle in handles)
        del handles, pending
        collect_until_quiet()
        retained = census() - before
    finally:
        if was_enabled:
            gc.enable()
    records = wal.record_count - records_before
    assert records == DURABLE // MAX_BATCH
    assert sum(retained.values()) <= PER_RECORD * records + SCAFFOLDING, (
        f"{sum(retained.values())} tracked objects retained by {DURABLE} "
        f"durable decisions in {records} WAL records: {dict(retained)}"
    )
