"""Batching write-ahead log in front of the replicated ledgers.

Appendix A gives the exact batching policy the status oracle uses:

* BookKeeper sustains ~20,000 writes/s of 1028-byte entries;
* multiple oracle records are batched into one ledger entry;
* a batch is flushed when **1 KB of data has accumulated** or **5 ms have
  elapsed since the last trigger**, whichever comes first;
* with a batching factor of 10 this persists the commit records of
  ~200K TPS.

:class:`BookKeeperWAL` reproduces that policy.  Time is injected via a
clock callable so the discrete-event simulator (and the unit tests) can
drive the 5 ms trigger deterministically; in standalone use the default
clock is a simple manual counter advanced by :meth:`advance_time`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.analysis.racecheck import active_checker, make_lock
from repro.wal.ledger import Ledger, LedgerManager

# Appendix A constants.
DEFAULT_BATCH_SIZE_BYTES = 1024  # flush after 1 KB accumulated
DEFAULT_BATCH_TIMEOUT = 0.005  # or 5 ms since last trigger
ENTRY_SIZE_BYTES = 1028  # BookKeeper's benchmarked entry size
BOOKKEEPER_MAX_WRITES_PER_SEC = 20_000

#: Record kind written by the group-commit frontend: one record carries the
#: decisions of a whole commit batch (see :mod:`repro.server`).  Payload is
#: ``(commits, aborts)``: a tuple of ``(start_ts, commit_ts, rows)`` triples
#: with ``rows`` a plain tuple of row keys, and a tuple of aborted start
#: timestamps — the one form :func:`group_commit_payload` produces.
GROUP_COMMIT_RECORD = "group-commit"

#: Appendix A sizing: each decision in a group record costs the same 32
#: bytes a standalone commit/abort record would.
GROUP_COMMIT_BYTES_PER_DECISION = 32


def group_commit_payload(commits, aborts) -> Tuple[Tuple, Tuple]:
    """Freeze a batch's decisions into the group-commit payload.

    The one normal form of a group-commit record, and the only function
    that produces it: tuples all the way down — ``rows`` is re-tupled from
    whatever iterable the decide loop handed over (the request's own
    ``frozenset``), in that iterable's iteration order.  The order is not
    semantic: replay treats ``rows`` as a set.

    Tuples of untracked objects are untracked by the cyclic collector the
    first time it sees them, sets never are.  The log retains every
    payload for its whole life, so with the write set kept as the
    request's frozenset two of every three objects a full collection
    walked were log payload (measured on the end-to-end benchmark:
    ~2.5 us of collector time per commit, against ~0.15 us for the
    re-tupling here).  In this form nothing reachable from a ledger
    entry's decisions is tracked after the first young collection, and
    the request's frozensets die with the batch.
    """
    return (
        tuple([(start_ts, commit_ts, tuple(rows)) for start_ts, commit_ts, rows in commits]),
        tuple(aborts),
    )


@dataclass
class WALRecord:
    """One logical record: a commit/abort/reservation from the oracle."""

    kind: str  # "commit" | "abort" | "ts-reserve" | "group-commit" | "snapshot"
    payload: Any
    size: int


class BookKeeperWAL:
    """Write-ahead log with size- and time-triggered batching.

    Args:
        ledger_manager: bookie ensemble to persist into (a fresh
            3-bookie/2-quorum ensemble by default).
        batch_bytes: size trigger (paper: 1 KB).
        batch_timeout: time trigger in seconds (paper: 5 ms).
        clock: callable returning current time in seconds.  Defaults to an
            internal manual clock (see :meth:`advance_time`); pass the
            simulator's ``now`` for integrated runs.
        sync_callback: invoked with the list of records in each flushed
            batch *after* the batch is durable — this is how the oracle
            learns its commit acks can be released.
    """

    def __init__(
        self,
        ledger_manager: Optional[LedgerManager] = None,
        batch_bytes: int = DEFAULT_BATCH_SIZE_BYTES,
        batch_timeout: float = DEFAULT_BATCH_TIMEOUT,
        clock: Optional[Callable[[], float]] = None,
        sync_callback: Optional[Callable[[List[WALRecord]], None]] = None,
    ) -> None:
        if batch_bytes < 1:
            raise ValueError("batch_bytes must be >= 1")
        if batch_timeout <= 0:
            raise ValueError("batch_timeout must be > 0")
        self._manager = ledger_manager or LedgerManager()
        self._ledger: Ledger = self._manager.create_ledger()
        self._batch_bytes = batch_bytes
        self._batch_timeout = batch_timeout
        self._manual_time = 0.0
        self._clock = clock or (lambda: self._manual_time)
        self._sync_callback = sync_callback

        # The batch buffer is the WAL's one piece of mutable hot state;
        # every mutation happens under _wal_lock (ledger replication and
        # the sync callback run *outside* it — append() may flush inline
        # on the size trigger, so holding the lock across the ledger
        # write would self-deadlock and order the WAL lock under the
        # callback's own locks).
        self._wal_lock = make_lock("wal")
        self._rc = active_checker()
        if self._rc is not None:
            self._rc.register_state("wal.pending", "wal")
        self._pending: List[WALRecord] = []  # guarded-by: _wal_lock
        self._pending_bytes = 0
        self._last_trigger = self._clock()

        self.flush_count = 0
        self.record_count = 0
        self.flushed_record_count = 0

    # ------------------------------------------------------------------
    # append path
    # ------------------------------------------------------------------
    def append(self, kind: str, payload: Any, size: int = 32) -> bool:
        """Queue a record; flush if the size trigger fires.

        Returns True if this append caused a flush (the record is durable
        on return), False if it is still buffered awaiting a trigger.
        """
        with self._wal_lock:
            if self._rc is not None:
                self._rc.access("wal.pending")
            self._pending.append(WALRecord(kind, payload, size))
            self._pending_bytes += size
            self.record_count += 1
            should_flush = self._pending_bytes >= self._batch_bytes
        if should_flush:
            self.flush()
            return True
        return False

    def append_group_commit(self, commits, aborts) -> bool:
        """Queue one group-commit record covering a whole decision batch.

        ``commits`` is an iterable of ``(start_ts, commit_ts, rows)``
        triples, ``aborts`` an iterable of aborted start timestamps.
        """
        return self.append_group_record(group_commit_payload(commits, aborts))

    def append_decisions(self, commits, aborts) -> Tuple[Tuple, Tuple]:
        """Queue a batch-decide engine's decision lists as one record.

        The hot-path entry point used by
        :meth:`repro.core.engine.CommitEngine.decide_batch` and the
        group-commit frontend: ``commits`` / ``aborts`` are the engine's
        already-ordered payload lists, whose ``rows`` element is still the
        request's own frozenset.  They are frozen into the normal form
        exactly once, here, by :func:`group_commit_payload` (which says
        why the rows are re-tupled rather than kept).  Returns the payload
        that was written — the same object the record holds — so the
        caller can expose it (e.g. ``FlushedBatch.committed_payload``).
        """
        payload = group_commit_payload(commits, aborts)
        self.append_group_record(payload)
        return payload

    def append_group_record(self, payload: Tuple[Tuple, Tuple]) -> bool:
        """Queue an already-normalized group-commit payload.

        This is the single authority for the record's size: 32 B per
        decision (Appendix A), so a 32-decision batch fills exactly one
        1 KB ledger entry.
        """
        commits, aborts = payload
        return self.append(
            GROUP_COMMIT_RECORD,
            payload,
            size=(len(commits) + len(aborts)) * GROUP_COMMIT_BYTES_PER_DECISION,
        )

    def tick(self) -> bool:
        """Fire the time trigger if ``batch_timeout`` has elapsed.

        The caller (simulator loop or oracle service loop) invokes this
        periodically.  Returns True if a flush happened.
        """
        if not self._pending:
            self._last_trigger = self._clock()
            return False
        if self._clock() - self._last_trigger >= self._batch_timeout:
            self.flush()
            return True
        return False

    def flush(self) -> int:
        """Force the pending batch out; returns number of records flushed."""
        with self._wal_lock:
            if self._rc is not None:
                self._rc.access("wal.pending")
            if not self._pending:
                self._last_trigger = self._clock()
                return 0
            batch = self._pending
            self._pending = []
            self._pending_bytes = 0
            self._last_trigger = self._clock()
        self._ledger.append(batch, size=sum(r.size for r in batch))
        self.flush_count += 1
        self.flushed_record_count += len(batch)
        if self._sync_callback is not None:
            self._sync_callback(batch)
        return len(batch)

    def drop_pending(self) -> int:
        """Discard the unflushed batch buffer (host crash).

        The batch buffer lives in the oracle host's memory; when that
        host dies, records that never reached a ledger are simply gone —
        they were never acknowledged, so losing them is correct.
        Returns the number of records dropped.
        """
        with self._wal_lock:
            if self._rc is not None:
                self._rc.access("wal.pending")
            dropped = len(self._pending)
            self._pending = []
            self._pending_bytes = 0
            self._last_trigger = self._clock()
        return dropped

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def replay(self) -> Iterator[WALRecord]:
        """Yield every durable record in order (crash recovery).

        Buffered-but-unflushed records are *not* replayed: they were never
        acknowledged, matching the durability contract.
        """
        for batch in self._ledger.replay():
            yield from batch

    def roll_ledger(self) -> None:
        """Close the current ledger and open a new one (log rotation)."""
        self.flush()
        self._ledger.close()
        self._ledger = self._manager.create_ledger()

    # ------------------------------------------------------------------
    # clock / metrics
    # ------------------------------------------------------------------
    def advance_time(self, dt: float) -> None:
        """Advance the internal manual clock (standalone mode only)."""
        self._manual_time += dt

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def ledger_manager(self) -> LedgerManager:
        return self._manager

    def batching_factor(self) -> float:
        """Average records per flushed batch (paper reports ~10)."""
        if not self.flush_count:
            return 0.0
        return self.flushed_record_count / self.flush_count

    def effective_tps_capacity(self) -> float:
        """Commit records/s this WAL can persist at the observed batching.

        BookKeeper does ~20K entry-writes/s; batching multiplies that by
        the records-per-batch factor (paper: factor 10 -> 200K TPS).
        """
        factor = self.batching_factor() or 1.0
        return BOOKKEEPER_MAX_WRITES_PER_SEC * factor


class WALTail:
    """An incremental cursor over a WAL's durable records.

    ``replay()`` always walks the full log — the right tool for a cold
    restart, the wrong one for a *warm standby* that wants to track the
    leader's writes as they happen.  A tail remembers how far into each
    ledger it has read and :meth:`poll` yields only the records that
    became durable since the last poll, across ledger rolls, in append
    order.  Appendix A's "another fresh instance ... could still
    recreate the memory state from the write-ahead log" then costs
    O(delta) at takeover instead of a full replay: the standby applies
    records continuously and only the un-polled suffix remains when the
    leader dies.

    Buffered-but-unflushed records are invisible to the tail, exactly as
    they are to ``replay()`` — they were never acknowledged, and a
    standby must never apply state the clients were never promised.
    """

    def __init__(self, wal: BookKeeperWAL) -> None:
        self._wal = wal
        # ledger_id -> how many acked entries we have consumed.
        self._consumed: dict = {}
        self.records_seen = 0
        self.polls = 0

    def poll(self) -> List[WALRecord]:
        """Return every record that became durable since the last poll."""
        self.polls += 1
        out: List[WALRecord] = []
        for ledger in sorted(
            self._wal.ledger_manager.ledgers(), key=lambda l: l.ledger_id
        ):
            done = self._consumed.get(ledger.ledger_id, 0)
            total = ledger.entry_count
            if done >= total:
                continue
            for entry_id in ledger._acked[done:total]:
                out.extend(ledger.read(entry_id).payload)
            self._consumed[ledger.ledger_id] = total
        self.records_seen += len(out)
        return out

    @property
    def lag(self) -> int:
        """Durable entries not yet polled (0 = fully caught up)."""
        return sum(
            ledger.entry_count - self._consumed.get(ledger.ledger_id, 0)
            for ledger in self._wal.ledger_manager.ledgers()
        )
