"""Serial, callable-based reference forms of the operating-point searches.

The package runs every search over :class:`~repro.runner.spec.RunSpec`s:
:func:`repro.sim.experiment.find_throughput_batch` bisects many searches
in lockstep, and :func:`repro.sim.experiment.best_mpl_result` runs the
C2PL+M candidates as one batch.  These are the straightforward
one-run-at-a-time forms over a workload factory, kept only as test
oracles: the spec paths must return exactly what these return.
"""

import dataclasses
import math
import typing

from repro.machine import MachineConfig
from repro.sim.experiment import TARGET_RT_MS
from repro.sim.simulation import run_simulation


def find_throughput_at_response_time(
    scheduler,
    workload_factory,
    config=None,
    target_rt_ms=TARGET_RT_MS,
    rate_lo=0.02,
    rate_hi=1.5,
    iterations=9,
    seed=0,
    duration_ms=2_000_000.0,
    warmup_ms=0.0,
):
    """Bisect the arrival rate until mean RT hits ``target_rt_ms``."""

    def response_at(rate):
        return run_simulation(
            scheduler, workload_factory(rate), config, seed=seed,
            duration_ms=duration_ms, warmup_ms=warmup_ms,
        )

    def above(result):
        rt = result.mean_response_ms
        return math.isnan(rt) or rt > target_rt_ms

    lo, hi = rate_lo, rate_hi
    hi_result = response_at(hi)
    if not above(hi_result):
        return hi_result  # even the fastest probed rate meets the target
    lo_result = response_at(lo)
    if above(lo_result):
        return lo_result  # target unreachable; report the floor probe
    best = lo_result
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        result = response_at(mid)
        if above(result):
            hi = mid
        else:
            lo = mid
            best = result
    return best


def best_mpl_result(
    workload_factory,
    base_config=MachineConfig(),
    rate_tps=1.2,
    mpl_candidates=(2, 4, 6, 8, 12, 16),
    scheduler="C2PL",
    seed=0,
    duration_ms=2_000_000.0,
    warmup_ms=0.0,
):
    """C2PL+M: the lowest mean RT over the MPL candidates, else the
    uncapped run flagged as a fallback."""

    def run(config):
        return run_simulation(
            scheduler, workload_factory(rate_tps), config, seed=seed,
            duration_ms=duration_ms, warmup_ms=warmup_ms,
        )

    best: typing.Optional[typing.Any] = None
    for mpl in mpl_candidates:
        result = run(base_config.replace(mpl=mpl))
        if math.isnan(result.mean_response_ms):
            continue
        if best is None or result.mean_response_ms < best.mean_response_ms:
            best = result
    if best is not None:
        return dataclasses.replace(best, scheduler="C2PL+M")
    return dataclasses.replace(run(base_config), scheduler="C2PL+M", fallback=True)
