"""E2 — Figure 5: status-oracle overhead (latency vs throughput).

Paper: complex workload, rows uniform over 20M, clients 1→26 each with
100 outstanding zero-execution-time transactions.  WSI reaches 80K TPS
at 10.7 ms, then saturates around 92K TPS; SI saturates later, around
104K TPS, because its critical section touches half the memory items
(§6.3).  Below saturation the two isolation levels are indistinguishable.
"""

import pytest

from repro.bench import (
    format_table,
    knee_index,
    latency_throughput_chart,
    saturates,
    within_factor,
)
from repro.sim.oracle_bench import sweep_clients

CLIENTS = [1, 2, 4, 8, 16, 26]


def run_both():
    si = sweep_clients("si", client_counts=CLIENTS, measure=0.3)
    wsi = sweep_clients("wsi", client_counts=CLIENTS, measure=0.3)
    return si, wsi


@pytest.mark.figure("fig5")
def test_e2_fig5_oracle_latency_vs_throughput(benchmark, print_header):
    si, wsi = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print_header("E2 — Figure 5: overhead on the status oracle")
    rows = []
    for a, b in zip(si, wsi):
        rows.append(
            (
                a.num_clients,
                f"{a.throughput_tps:.0f}",
                f"{a.avg_latency_ms:.2f}",
                f"{b.throughput_tps:.0f}",
                f"{b.avg_latency_ms:.2f}",
            )
        )
    print(
        format_table(
            ["clients", "SI TPS", "SI ms", "WSI TPS", "WSI ms"],
            rows,
            title="latency vs throughput, complex workload, uniform 20M rows",
        )
    )
    print()
    print(latency_throughput_chart(
        "Figure 5 (reproduced): latency vs throughput",
        {
            "WSI": [(r.throughput_tps, r.avg_latency_ms) for r in wsi],
            "SI": [(r.throughput_tps, r.avg_latency_ms) for r in si],
        },
    ))
    si_max = max(r.throughput_tps for r in si)
    wsi_max = max(r.throughput_tps for r in wsi)
    print(f"\nSI saturation:  {si_max:.0f} TPS (paper: ~104K)")
    print(f"WSI saturation: {wsi_max:.0f} TPS (paper: ~92K)")

    # Shape assertions: both curves flatten at the end, and only after
    # rising first — a curve flat from its first point has its knee at
    # index 1, which ``saturates`` alone would pass.
    for curve in (si, wsi):
        tps = [r.throughput_tps for r in curve]
        assert saturates(tps)
        assert knee_index(tps) >= 2
    # SI saturates higher than WSI (the paper's 104K vs 92K), and the
    # two land within a factor 1.5 of the paper's absolute anchors.
    assert si_max > wsi_max
    assert within_factor(si_max, 104_000, 1.5)
    assert within_factor(wsi_max, 92_000, 1.5)
    # Below saturation (first two points) the levels are comparable:
    # latencies within 2x of each other.
    for a, b in zip(si[:2], wsi[:2]):
        assert b.avg_latency_ms < 2 * a.avg_latency_ms
    # Latency grows monotonically past the knee for both.
    assert wsi[-1].avg_latency_ms > wsi[1].avg_latency_ms
    assert si[-1].avg_latency_ms > si[1].avg_latency_ms
