"""Ablation: the re-submission delay for delayed lock requests.

The paper only says delayed/aborted requests are re-submitted "after
some delay".  Every registered scheduler runs at 25, 100 and 400 ms and
with the timer off (``retry_delay_ms=0``, i.e. infinity):

- The admission-order family (DGCC, CAR, PRED) wakes a DELAYed request
  exactly when its verdict can change -- commit, abort, a CAR
  re-partition that moved someone, a DGCC epoch drain -- and never
  polls, so its results must be byte-identical across the four.
- The paper schedulers keep the fallback timer, and their metric
  surface must stay flat (TPS within 15 %): the unspecified constant is
  not doing the scheduling work, the event-driven wake-ups are.  GOW
  and LOW keep the timer because their DELAY verdicts can also change
  on another transaction's *grant* (a grant re-orients the WTPG, which
  can turn a delayed request's chain test or E(q) ranking into a
  grant), and grants wake nobody; the timer is how such a request is
  re-submitted before the next commit, as the paper describes.  Waking
  on every grant instead would be a different model (and more CN work).
- The extensions (2PL, LOW-LB) keep the timer too and are reported, not
  gated: at QUICK scale 2PL's deadlock-restart dynamics make its
  throughput swing with the delay.
"""

import json

from repro.analysis import render_table
from repro.core import registry
from repro.machine import MachineConfig
from repro.sim import run_simulation
from repro.txn import experiment1_workload

#: 0 switches the fallback timer off (an infinite delay)
DELAYS_MS = (25.0, 100.0, 400.0, 0.0)


def test_ablation_retry_delay(benchmark, scale, show):
    def run():
        results = {}
        for name in registry.available():
            results[name] = [
                run_simulation(
                    name,
                    experiment1_workload(0.8, num_files=16),
                    config=MachineConfig(
                        dd=1, num_files=16, retry_delay_ms=delay
                    ),
                    seed=3,
                    duration_ms=scale.duration_ms,
                    warmup_ms=scale.warmup_ms,
                )
                for delay in DELAYS_MS
            ]
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [name, registry.family_of(name)]
        + [
            f"{r.throughput_tps:.3f} / {r.delays}"
            for r in runs
        ]
        for name, runs in results.items()
    ]
    print()
    print(render_table(
        ["scheduler", "family"]
        + [f"{d:g} ms" if d else "inf" for d in DELAYS_MS],
        rows,
        title="Ablation: delayed-request re-submission fallback "
        "(0.8 TPS, DD=1; TPS / delays)",
    ))

    for name, runs in results.items():
        family = registry.family_of(name)
        if family == "modern":
            # exact wake-ups: the fallback constant is never read
            dumps = {json.dumps(r.to_dict(), sort_keys=True) for r in runs}
            assert len(dumps) == 1, name
        elif family == "paper":
            tps = [r.throughput_tps for r in runs]
            assert max(tps) - min(tps) <= 0.15 * max(tps), (name, tps)
