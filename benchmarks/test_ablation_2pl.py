"""Ablation: the dismissed baseline -- plain strict 2PL with deadlocks.

The paper drops traditional 2PL in the introduction ("chains of
blocking") and studies its cautious variant instead.  This bench makes
the dismissal quantitative: plain 2PL adds deadlock restarts on top of
C2PL's blocking chains, and both trail the chain-avoiders badly.
"""

from repro.analysis import render_table
from repro.machine import MachineConfig
from repro.sim import run_simulation
from repro.txn import experiment1_workload

SCHEDULERS = ("ASL", "LOW", "C2PL", "2PL")


def test_ablation_2pl(benchmark, scale, show):
    def run():
        rows = []
        for scheduler in SCHEDULERS:
            result = run_simulation(
                scheduler,
                experiment1_workload(0.8, num_files=16),
                config=MachineConfig(dd=1, num_files=16),
                seed=3,
                duration_ms=scale.duration_ms,
                warmup_ms=scale.warmup_ms,
            )
            rows.append([
                scheduler,
                result.throughput_tps,
                result.mean_response_s,
                result.restarts,
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(
        ["scheduler", "TPS", "meanRT(s)", "deadlock restarts"],
        rows,
        title="Ablation: plain 2PL vs the paper's line-up (Exp. 1, 0.8 TPS, DD=1)",
    ))

    by = {row[0]: row for row in rows}
    # plain 2PL actually deadlocks on this workload
    assert by["2PL"][3] > 0
    # the chain-avoiders beat both 2PL variants
    for good in ("ASL", "LOW"):
        assert by[good][1] > by["2PL"][1] * 0.9
        assert by[good][1] > by["C2PL"][1] * 0.9
