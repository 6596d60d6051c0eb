"""Ablation: the MPL knob behind C2PL+M.

The paper footnotes that C2PL+M improves response time but not peak
throughput.  Sweeping the multiprogramming level makes that visible:
small MPL caps the blocking chains (better RT), but admission queueing
replaces lock queueing, so completed work saturates.
"""

from repro.analysis import render_table
from repro.machine import MachineConfig
from repro.sim import run_simulation
from repro.txn import experiment1_workload

MPLS = (2, 4, 8, 16, None)  # None = plain C2PL (infinite MPL)


def test_ablation_c2plm_mpl(benchmark, scale, show):
    def run():
        rows = []
        for mpl in MPLS:
            result = run_simulation(
                "C2PL",
                experiment1_workload(1.0, num_files=16),
                config=MachineConfig(dd=1, num_files=16, mpl=mpl),
                seed=3,
                duration_ms=scale.duration_ms,
                warmup_ms=scale.warmup_ms,
            )
            rows.append([
                "inf" if mpl is None else mpl,
                result.throughput_tps,
                result.mean_response_s,
                result.blocks,
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(render_table(
        ["mpl", "TPS", "meanRT(s)", "blocks"],
        rows,
        title="Ablation: C2PL under MPL control (Experiment 1, 1.0 TPS, DD=1)",
    ))

    by_mpl = {row[0]: row for row in rows}
    # bounding MPL reduces lock blocking dramatically vs infinite MPL
    assert by_mpl[2][3] < by_mpl["inf"][3]
    # and some finite MPL completes at least as much work
    assert max(r[1] for r in rows[:-1]) >= by_mpl["inf"][1] * 0.9
