"""Operating-point search over run specifications.

The paper reports two kinds of operating points:

- metrics at a *fixed arrival rate* (e.g. response time at 1.2 TPS):
  one :class:`~repro.runner.spec.RunSpec` each, run by :func:`run_specs`;
- *throughput at a fixed response time* of 70 s: the arrival rate is
  tuned until the scheduler's mean response time hits the target, and
  the measured throughput there is reported (Tables 2 and 4, Figs. 9
  and 13).  :func:`find_throughput_batch` performs that tuning by
  bisection on the arrival rate, treating an unstable run (response
  time exploding past the target) as "too fast".

Every function takes an optional
:class:`~repro.runner.ParallelRunner`: with one, independent runs fan
out across worker processes and are memoised in the runner's disk
cache; without one, the same specs run inline, sequentially.  Results
are identical either way because each run is a pure function of its
spec.
"""

from __future__ import annotations

import dataclasses
import math
import typing
import warnings

from repro.machine.config import MachineConfig
from repro.runner.spec import RunSpec, WorkloadSpec
from repro.sim.metrics import SimulationResult

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.runner.runner import ParallelRunner

#: the paper's operating-point target: mean response time of 70 seconds
TARGET_RT_MS = 70_000.0


def run_specs(
    specs: typing.Sequence[RunSpec],
    runner: typing.Optional["ParallelRunner"] = None,
    label: str = "batch",
) -> typing.List[SimulationResult]:
    """Execute ``specs`` through ``runner``, or inline when no runner.

    The inline path performs the exact same simulations sequentially, so
    callers can be written once against specs and gain parallelism and
    caching only when a runner is supplied.
    """
    if runner is not None:
        return runner.run_batch(specs, label=label)
    # imported here, not at module level: the worker module sits on the
    # runner side of the runner <-> sim package cycle
    from repro.runner.worker import execute_spec

    return [execute_spec(spec) for spec in specs]


def _above_target(result: SimulationResult, target_rt_ms: float) -> bool:
    rt = result.mean_response_ms
    return math.isnan(rt) or rt > target_rt_ms


@dataclasses.dataclass(frozen=True)
class ThroughputRequest:
    """One bisection search for the rate where mean RT hits the target.

    The search probes ``rate_hi`` first (if it meets the target, that
    run is the answer), then ``rate_lo`` (if even that misses, the
    target is unreachable and that run is reported), then bisects
    ``iterations`` times, keeping the fastest probe that met the
    target.  Mean response time is monotone in the arrival rate, and a
    NaN response time (no commits: hopeless overload) counts as above
    target.
    """

    scheduler: str
    workload: WorkloadSpec
    config: MachineConfig = MachineConfig()
    target_rt_ms: float = TARGET_RT_MS
    rate_lo: float = 0.02
    rate_hi: float = 1.5
    iterations: int = 9
    seed: int = 0
    duration_ms: float = 2_000_000.0
    warmup_ms: float = 0.0

    def spec_at(self, rate_tps: float) -> RunSpec:
        return RunSpec(
            scheduler=self.scheduler,
            workload=self.workload.at_rate(rate_tps),
            config=self.config,
            seed=self.seed,
            duration_ms=self.duration_ms,
            warmup_ms=self.warmup_ms,
        )


class _BisectionState:
    """Drives one search probe-by-probe (see :class:`ThroughputRequest`)."""

    def __init__(self, request: ThroughputRequest) -> None:
        self.request = request
        self.phase = "hi"  # "hi" -> "lo" -> "bisect" -> "done"
        self.lo = request.rate_lo
        self.hi = request.rate_hi
        self.steps = 0
        self.best: typing.Optional[SimulationResult] = None
        self.result: typing.Optional[SimulationResult] = None
        self._probe_rate = 0.0

    @property
    def done(self) -> bool:
        return self.phase == "done"

    def next_spec(self) -> RunSpec:
        if self.phase == "hi":
            self._probe_rate = self.hi
        elif self.phase == "lo":
            self._probe_rate = self.lo
        else:
            self._probe_rate = (self.lo + self.hi) / 2.0
        return self.request.spec_at(self._probe_rate)

    def feed(self, result: SimulationResult) -> None:
        above = _above_target(result, self.request.target_rt_ms)
        if self.phase == "hi":
            if not above:
                self._finish(result)  # even the fastest rate meets target
            else:
                self.phase = "lo"
        elif self.phase == "lo":
            if above:
                self._finish(result)  # target unreachable: report floor
            else:
                self.best = result
                self.phase = "bisect"
                if self.steps >= self.request.iterations:
                    self._finish(self.best)
        else:
            if above:
                self.hi = self._probe_rate
            else:
                self.lo = self._probe_rate
                self.best = result
            self.steps += 1
            if self.steps >= self.request.iterations:
                self._finish(typing.cast(SimulationResult, self.best))

    def _finish(self, result: SimulationResult) -> None:
        self.result = result
        self.phase = "done"


def find_throughput_batch(
    requests: typing.Sequence[ThroughputRequest],
    runner: typing.Optional["ParallelRunner"] = None,
    label: str = "rt-target",
) -> typing.List[SimulationResult]:
    """Run many rate bisections in lockstep; one result per request.

    Each round collects the next probe of every unfinished search into
    one batch, so independent searches proceed in parallel even though
    probes within a search are inherently sequential.  Each result is
    the final (matched) run of its search; its ``throughput_tps`` is the
    paper's "throughput at RT = 70 s".
    """
    states = [_BisectionState(request) for request in requests]
    round_no = 0
    while True:
        active = [state for state in states if not state.done]
        if not active:
            break
        round_no += 1
        specs = [state.next_spec() for state in active]
        results = run_specs(specs, runner, label=f"{label}:round{round_no}")
        for state, result in zip(active, results):
            state.feed(result)
    return [typing.cast(SimulationResult, state.result) for state in states]


def mpl_candidate_specs(
    spec: RunSpec, mpl_candidates: typing.Sequence[int]
) -> typing.List[RunSpec]:
    """``spec`` under each MPL cap of ``mpl_candidates``: C2PL+M's runs."""
    return [
        dataclasses.replace(spec, config=spec.config.replace(mpl=mpl))
        for mpl in mpl_candidates
    ]


def best_mpl_result(
    spec: RunSpec,
    mpl_candidates: typing.Sequence[int] = (2, 4, 6, 8, 12, 16),
    runner: typing.Optional["ParallelRunner"] = None,
) -> SimulationResult:
    """C2PL+M: ``spec`` at its best MPL among the candidates (lowest mean RT).

    The paper defines C2PL+M as "the best C2PL to control
    multi-programming level"; ``spec`` is the uncapped run, and the
    candidates replace its ``config.mpl``.  They run as one batch; see
    :func:`choose_best_mpl` for the choice.
    """
    candidates = run_specs(
        mpl_candidate_specs(spec, mpl_candidates),
        runner,
        label=f"c2pl+m:{spec.workload.rate_tps:g}tps",
    )
    return choose_best_mpl(spec, mpl_candidates, candidates, runner)


def choose_best_mpl(
    spec: RunSpec,
    mpl_candidates: typing.Sequence[int],
    candidates: typing.Sequence[SimulationResult],
    runner: typing.Optional["ParallelRunner"] = None,
) -> SimulationResult:
    """C2PL+M from the results of ``mpl_candidate_specs(spec, ...)``.

    Runs that complete no transactions are skipped.  If *no* candidate
    commits anything the uncapped ``spec`` is run and returned instead,
    flagged via ``result.fallback`` and a warning -- a NaN-RT candidate
    silently posing as C2PL+M would otherwise corrupt downstream tables.
    """

    def relabel(result: SimulationResult, **changes: typing.Any):
        # never mutate: callers may hold the same result object
        return dataclasses.replace(result, scheduler="C2PL+M", **changes)

    best: typing.Optional[SimulationResult] = None
    for result in candidates:
        if math.isnan(result.mean_response_ms):
            continue
        if best is None or result.mean_response_ms < best.mean_response_ms:
            best = result
    if best is not None:
        return relabel(best)

    # degenerate: nothing committed under any MPL; fall back to raw C2PL
    warnings.warn(
        f"C2PL+M sweep over mpl={tuple(mpl_candidates)} at "
        f"{spec.workload.rate_tps:g} TPS committed no transactions; falling "
        "back to the uncapped run (result.fallback=True)",
        RuntimeWarning,
        stacklevel=3,
    )
    fallback = run_specs([spec], runner, label="c2pl+m:fallback")[0]
    return relabel(fallback, fallback=True)
