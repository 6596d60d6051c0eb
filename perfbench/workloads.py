"""The benchmark's pinned workloads, run through the public runner API.

Each workload is one *pass*: a function that takes a
:class:`~repro.runner.ParallelRunner` and the seed and dispatches every
spec of the workload through it, exactly as ``examples/reproduce_paper.py``
or ``repro sweep`` would.  Why each workload exists is in README.md
next to this file.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.experiments import exp1
from repro.experiments.common import QUICK
from repro.machine.config import MachineConfig
from repro.runner.spec import RunSpec, WorkloadSpec

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.runner.runner import ParallelRunner

#: the DD = 8 column for two schedulers whose searches cost about the
#: same on every seed; README.md says what was cut and why
FIG9_SCHEDULERS = ("NODC", "OPT")
FIG9_DDS = (8,)

#: the paper's horizon: 2,000,000 ms with a 200,000 ms warm-up
PAPER_DURATION_MS = 2_000_000.0
PAPER_WARMUP_MS = 200_000.0


@dataclasses.dataclass(frozen=True)
class Workload:
    """One pinned workload: its name, its pass and its final figures."""

    name: str
    #: ``run(runner, seed)`` dispatches every spec of one pass
    run: typing.Callable[["ParallelRunner", int], object]
    #: ``finals(output)``: figures of the pass's final results that must
    #: be positive (a bisection's probes are not final: an overloaded
    #: rate may commit nothing, which is how the search learns it is
    #: above target)
    finals: typing.Callable[[object], typing.List[float]]


def _fig9_bisect(runner: "ParallelRunner", seed: int) -> object:
    return exp1.figure9(
        QUICK, seed=seed, schedulers=FIG9_SCHEDULERS, dds=FIG9_DDS,
        runner=runner,
    )


def _fig9_finals(output: object) -> typing.List[float]:
    """Throughput at RT = 70 s of every (DD, scheduler) cell."""
    rows = output.rows  # type: ignore[attr-defined]
    return [float(tps) for row in rows for tps in row[1:]]


def wtpg_steady_specs(seed: int) -> typing.List[RunSpec]:
    """GOW and LOW on Experiments 1 and 2 at 0.5 TPS, DD = 1."""
    return [
        RunSpec(
            scheduler=scheduler,
            workload=WorkloadSpec.make(kind, 0.5),
            config=MachineConfig(dd=1),
            seed=seed,
            duration_ms=PAPER_DURATION_MS,
            warmup_ms=PAPER_WARMUP_MS,
        )
        for scheduler in ("GOW", "LOW")
        for kind in ("exp1", "exp2")
    ]


def delay_storm_specs(seed: int) -> typing.List[RunSpec]:
    """CAR, PRED and DGCC on Experiment 1 at 0.5 TPS, DD = 1, MPL = 8.

    The offered load exceeds what these schedulers commit, so the MPL
    gate always holds eight active transactions: a closed loop whose
    retry polling runs at a steady rate instead of growing with an
    unbounded backlog (without the cap the delay count per seed varies
    by a factor of three).
    """
    return [
        RunSpec(
            scheduler=scheduler,
            workload=WorkloadSpec.make("exp1", 0.5),
            config=MachineConfig(dd=1, mpl=8),
            seed=seed,
            duration_ms=PAPER_DURATION_MS,
            warmup_ms=PAPER_WARMUP_MS,
        )
        for scheduler in ("CAR", "PRED", "DGCC")
    ]


def _batch(
    name: str, make_specs: typing.Callable[[int], typing.List[RunSpec]]
) -> typing.Callable[["ParallelRunner", int], object]:
    def run(runner: "ParallelRunner", seed: int) -> object:
        return runner.run_batch(make_specs(seed), label=name)

    return run


def _batch_finals(output: object) -> typing.List[float]:
    """Commits of every simulation of the batch."""
    return [
        float(result.completed)
        for result in output  # type: ignore[attr-defined]
        if result is not None
    ]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("fig9-bisect", _fig9_bisect, _fig9_finals),
        Workload(
            "wtpg-steady", _batch("wtpg-steady", wtpg_steady_specs),
            _batch_finals,
        ),
        Workload(
            "delay-storm", _batch("delay-storm", delay_storm_specs),
            _batch_finals,
        ),
    )
}
