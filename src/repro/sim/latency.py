"""Latency parameters, calibrated to the paper's §6.2 microbenchmarks.

The paper reports, for one client on the 34-machine testbed:

=====================  ==========  =============================================
operation              average     dominant cost
=====================  ==========  =============================================
start-timestamp        0.17 ms     network RTT; persistence amortized (App. A)
random read (cold)     38.8 ms     HDFS block load from local/remote disk
write (put)            1.13 ms     memstore write + WAL append
commit request         4.1 ms      WAL persistence via BookKeeper
=====================  ==========  =============================================

:class:`LatencyModel` carries these constants plus the derived service
times the cluster simulation needs (hot reads served from the block
cache, per-request CPU costs, oracle critical-section costs).  The two
oracle-side per-row costs differ between SI and WSI per §6.3: "the
running time of the critical section is slightly higher with
write-snapshot isolation since it requires loading as twice memory items
as with snapshot isolation" — SI checks and updates the *same* rows
(cache-warm), WSI checks the read set then updates the disjoint write
set.  The ~13 % gap reproduces the 104K vs 92K TPS saturation points of
Fig. 5.

All sampled latencies use an exponential jitter around the mean so queue
behaviour is realistic (an M/M/c-flavoured model); pass ``jitter=0`` for
deterministic service times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

MS = 1e-3
US = 1e-6


@dataclass
class LatencyModel:
    """All timing constants for the simulated testbed (seconds)."""

    # §6.2 microbenchmark values.
    start_timestamp: float = 0.17 * MS
    read_cold: float = 38.8 * MS
    write: float = 1.13 * MS
    commit_wal: float = 4.1 * MS

    # Derived / modelled values.
    read_hot: float = 1.6 * MS  # block-cache hit: memstore/cache lookup
    network_rtt: float = 0.15 * MS  # client <-> server round trip
    server_cpu_per_op: float = 0.35 * MS  # request parse + cell handling

    # Status-oracle critical section (Fig. 5 calibration): the oracle
    # saturates at ~104K TPS under SI and ~92K TPS under WSI, i.e. mean
    # service ~9.6 us and ~10.9 us per commit request at the complex
    # workload's ~5 written (and ~5 read) rows per transaction.
    oracle_base: float = 7.0 * US  # per-request fixed cost
    oracle_per_row_si: float = 0.52 * US  # check+update same rows (warm)
    oracle_per_row_wsi_check: float = 0.42 * US  # load read-set items
    oracle_per_row_wsi_update: float = 0.36 * US  # then load write set
    # Group-commit frontend (repro.server): the batch pays oracle_base
    # once, and each batched request only its residual handling cost —
    # calibrated to the wall-clock ratio benchmark E17 measures.
    oracle_batched_request: float = 1.4 * US

    # BookKeeper batching (Appendix A): flush on 1 KB or 5 ms; a commit
    # is acknowledged at the next flush, so its latency is the batch-fill
    # wait plus the replicated ledger write (network + two bookie disks),
    # which dominates the 4.1 ms commit latency of §6.2.
    wal_flush_interval: float = 5.0 * MS
    wal_write: float = 3.5 * MS

    # jitter: coefficient of variation of service times (0 = deterministic)
    jitter: float = 1.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def sample(self, mean: float) -> float:
        """Draw a service time with the configured jitter.

        ``jitter=1`` gives an exponential distribution (CV=1); smaller
        values blend toward the deterministic mean.
        """
        if mean <= 0:
            return 0.0
        if self.jitter <= 0:
            return mean
        exponential = self._rng.expovariate(1.0 / mean)
        return (1 - self.jitter) * mean + self.jitter * exponential

    # convenience samplers -------------------------------------------
    def sample_read(self, cache_hit: bool) -> float:
        return self.sample(self.read_hot if cache_hit else self.read_cold)

    def sample_write(self) -> float:
        return self.sample(self.write)

    def sample_start_timestamp(self) -> float:
        return self.sample(self.start_timestamp)

    def oracle_service_si(self, rows_checked: int) -> float:
        """Critical-section time for an SI commit of ``rows_checked`` rows."""
        return self.oracle_base + self.oracle_per_row_si * rows_checked

    def oracle_service_wsi(self, rows_checked: int, rows_updated: int) -> float:
        """Critical-section time for a WSI commit: the read set is loaded
        for the check and the (different) write set for the update."""
        return (
            self.oracle_base
            + self.oracle_per_row_wsi_check * rows_checked
            + self.oracle_per_row_wsi_update * rows_updated
        )

    def oracle_service_batch(
        self, level: str, requests: int, rows_checked: int, rows_updated: int
    ) -> float:
        """Critical-section time for one group-commit batch (§6.3): the
        fixed entry cost is paid once, the per-row loads once per row,
        and each request only its residual batched handling cost."""
        if level == "si":
            row_cost = self.oracle_per_row_si * rows_checked
        else:
            row_cost = (
                self.oracle_per_row_wsi_check * rows_checked
                + self.oracle_per_row_wsi_update * rows_updated
            )
        return (
            self.oracle_base
            + self.oracle_batched_request * requests
            + row_cost
        )


def paper_latency_model(seed: Optional[int] = None, jitter: float = 1.0) -> LatencyModel:
    """The default model with the paper's §6.2 numbers."""
    return LatencyModel(seed=seed, jitter=jitter)
