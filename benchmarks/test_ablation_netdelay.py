"""Ablation: network transit delay.

Table 1 sets ``netdelay`` to 0 ms.  This ablation verifies that the
conclusion is insensitive to realistic LAN delays: message latency adds
a constant per step, negligible against 1,000 ms object scans, so the
scheduler ranking is unchanged even at 50 ms per hop.
"""

from repro.analysis import render_table
from repro.machine import MachineConfig
from repro.sim import run_simulation
from repro.txn import experiment1_workload

DELAYS_MS = (0.0, 10.0, 50.0)
SCHEDULERS = ("ASL", "C2PL")


def test_ablation_netdelay(benchmark, scale, show):
    def run():
        rows = []
        for delay in DELAYS_MS:
            config = MachineConfig(dd=1, num_files=16, netdelay_ms=delay)
            row = [delay]
            for scheduler in SCHEDULERS:
                result = run_simulation(
                    scheduler,
                    experiment1_workload(0.6, num_files=16),
                    config=config,
                    seed=3,
                    duration_ms=scale.duration_ms,
                    warmup_ms=scale.warmup_ms,
                )
                row.extend([result.throughput_tps, result.mean_response_s])
            rows.append(row)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(
        ["netdelay (ms)", "ASL TPS", "ASL RT(s)", "C2PL TPS", "C2PL RT(s)"],
        rows,
        title="Ablation: network delay (Experiment 1, 0.6 TPS, DD=1)",
    ))

    # ASL beats C2PL at every delay; absolute impact of delay is small
    for row in rows:
        assert row[1] > row[3] * 0.9
    assert rows[-1][1] > rows[0][1] * 0.8  # 50 ms barely moves throughput
