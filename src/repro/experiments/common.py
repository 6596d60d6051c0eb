"""Shared settings for the paper's experiments, and the one figure driver.

The paper simulates 2,000,000 clocks (2,000 s) per measured point.  A
full-fidelity reproduction is expensive across the dozens of points each
figure needs, so every experiment takes a :class:`RunScale`; the
``quick`` scale keeps wall-clock time reasonable for CI/benchmarks while
preserving every qualitative shape, and ``paper`` matches the paper's
horizon.  Set the environment variable ``REPRO_SCALE=paper`` to make the
benchmark suite run full-length simulations.

Each table and figure is declared once, as a :class:`Figure` (a grid of
measured cells) or a :class:`DerivedFigure` (computed from another
figure's output), in :mod:`~repro.experiments.exp1`,
:mod:`~repro.experiments.exp2` or :mod:`~repro.experiments.exp3`.
Calling a declaration runs it::

    exp1.figure9(QUICK, seed=0, runner=runner, dds=(1, 8))

Keyword arguments override the declaration's ``defaults``.  The driver
runs every distinct job of the figure once: the fixed-rate runs and
every C2PL+M cell's MPL candidates as one batch, and the rate
bisections as one lockstep search.  With a
:class:`~repro.runner.ParallelRunner` the batches fan out across worker
processes and are served from its cache; without one the same specs run
inline, with identical results.
"""

from __future__ import annotations

import dataclasses
import operator
import os
import types
import typing

from repro.runner.spec import RunSpec, WorkloadSpec
from repro.sim.experiment import (
    ThroughputRequest,
    choose_best_mpl,
    find_throughput_batch,
    mpl_candidate_specs,
    run_specs,
)

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.config import MachineConfig
    from repro.runner.runner import ParallelRunner

#: MPL candidates swept for C2PL+M ("the best C2PL")
C2PLM_MPL_CANDIDATES = (2, 4, 6, 8, 12, 16)


@dataclasses.dataclass(frozen=True)
class RunScale:
    """Simulation horizon and bisection effort for one experiment run."""

    name: str
    duration_ms: float
    warmup_ms: float
    bisect_iterations: int

    @property
    def measured_window_ms(self) -> float:
        return self.duration_ms - self.warmup_ms


#: fast: preserves orderings/shapes; used by default in benchmarks/tests
QUICK = RunScale("quick", duration_ms=400_000.0, warmup_ms=60_000.0,
                 bisect_iterations=6)

#: the paper's 2,000,000-clock horizon
PAPER = RunScale("paper", duration_ms=2_000_000.0, warmup_ms=200_000.0,
                 bisect_iterations=8)

#: minimal: smoke-testing the experiment plumbing only
SMOKE = RunScale("smoke", duration_ms=120_000.0, warmup_ms=20_000.0,
                 bisect_iterations=3)

_SCALES = {s.name: s for s in (QUICK, PAPER, SMOKE)}


def scale_from_env(default: RunScale = QUICK) -> RunScale:
    """The run scale selected by ``REPRO_SCALE`` (quick/paper/smoke)."""
    name = os.environ.get("REPRO_SCALE", default.name).lower()
    if name not in _SCALES:
        raise ValueError(
            f"REPRO_SCALE must be one of {sorted(_SCALES)}, got {name!r}"
        )
    return _SCALES[name]


@dataclasses.dataclass
class ExperimentOutput:
    """One regenerated table or figure.

    ``headers``/``rows`` carry the data; ``paper_reference`` restates what
    the paper reported so EXPERIMENTS.md can be written from the output.
    """

    experiment_id: str
    title: str
    headers: typing.List[str]
    rows: typing.List[typing.List[object]]
    paper_reference: str = ""

    def column(self, header: str) -> typing.List[object]:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def as_dict(self) -> typing.Dict[str, typing.List[object]]:
        return {h: self.column(h) for h in self.headers}


class BestMpl(typing.NamedTuple):
    """A C2PL+M job: ``spec`` at its best MPL among the candidates."""

    spec: RunSpec
    mpl_candidates: typing.Tuple[int, ...]


Job = typing.Union[RunSpec, ThroughputRequest, BestMpl]


class Cell(typing.NamedTuple):
    """One table cell: its jobs, and its value as a function of their
    results (in job order)."""

    jobs: typing.Tuple[Job, ...]
    value: typing.Callable[..., object]


def _speedup(base: typing.Any, fast: typing.Any) -> float:
    return fast.speedup_against(base)


_mean_rt_s = operator.attrgetter("mean_response_s")
_throughput_tps = operator.attrgetter("throughput_tps")


class Grid(types.SimpleNamespace):
    """One call of a figure: ``scale``, ``seed`` and every parameter as
    attributes, and the three kinds of cell a declaration builds."""

    def spec(
        self, scheduler: str, workload: WorkloadSpec, config: "MachineConfig"
    ) -> RunSpec:
        return RunSpec(
            scheduler=scheduler,
            workload=workload,
            config=config,
            seed=self.seed,
            duration_ms=self.scale.duration_ms,
            warmup_ms=self.scale.warmup_ms,
        )

    def rt(
        self, scheduler: str, workload: WorkloadSpec, config: "MachineConfig"
    ) -> Cell:
        """Mean response time (s) at the workload's arrival rate."""
        return Cell((self.spec(scheduler, workload, config),), _mean_rt_s)

    def throughput(
        self, scheduler: str, workload: WorkloadSpec, config: "MachineConfig"
    ) -> Cell:
        """Throughput (TPS) at mean RT = 70 s, by bisection on the rate."""
        request = ThroughputRequest(
            scheduler=scheduler,
            workload=workload,
            config=config,
            iterations=self.scale.bisect_iterations,
            seed=self.seed,
            duration_ms=self.scale.duration_ms,
            warmup_ms=self.scale.warmup_ms,
        )
        return Cell((request,), _throughput_tps)

    def speedup(
        self,
        scheduler: str,
        workload: WorkloadSpec,
        base: "MachineConfig",
        config: "MachineConfig",
    ) -> Cell:
        """Response-time speedup of ``config`` over ``base``."""
        jobs = (
            self.spec(scheduler, workload, base),
            self.spec(scheduler, workload, config),
        )
        return Cell(jobs, _speedup)

    def c2plm(
        self,
        workload: WorkloadSpec,
        config: "MachineConfig",
        mpl_candidates: typing.Sequence[int],
    ) -> Cell:
        """Mean response time (s) of C2PL at its best MPL (C2PL+M)."""
        job = BestMpl(self.spec("C2PL", workload, config), tuple(mpl_candidates))
        return Cell((job,), _mean_rt_s)


def _run_jobs(
    jobs: typing.Iterable[Job],
    runner: typing.Optional["ParallelRunner"],
    label: str,
) -> typing.Dict[Job, typing.Any]:
    """Every distinct job once; its result by job.

    The fixed-rate runs and every C2PL+M job's MPL candidates share one
    batch.
    """
    unique = list(dict.fromkeys(jobs))
    done: typing.Dict[Job, typing.Any] = {}
    specs = [job for job in unique if isinstance(job, RunSpec)]
    candidates = {
        job: mpl_candidate_specs(job.spec, job.mpl_candidates)
        for job in unique
        if isinstance(job, BestMpl)
    }
    batch = list(dict.fromkeys(
        specs + [spec for runs in candidates.values() for spec in runs]
    ))
    if batch:
        results = dict(zip(batch, run_specs(batch, runner, label=label)))
        done.update((spec, results[spec]) for spec in specs)
        for job, runs in candidates.items():
            done[job] = choose_best_mpl(
                job.spec,
                job.mpl_candidates,
                [results[spec] for spec in runs],
                runner,
            )
    searches = [job for job in unique if isinstance(job, ThroughputRequest)]
    if searches:
        done.update(
            zip(searches, find_throughput_batch(searches, runner, label=label))
        )
    return done


#: a figure's scheduler set: the paper's own columns, or a function that
#: resolves the line-up from the registry when the figure runs (so newly
#: registered schedulers join without touching the declaration)
SchedulerSet = typing.Union[
    typing.Tuple[str, ...], typing.Callable[[], typing.Tuple[str, ...]]
]


@dataclasses.dataclass(frozen=True, eq=False)
class Declaration:
    """What every table and figure declares: its id, title (a
    :meth:`str.format` template over the parameters), the paper's
    reference values, the header of its first column, the parameters a
    caller may override with their defaults, and its scheduler set."""

    id: str
    title: str
    paper_reference: str
    axis: str
    defaults: typing.Mapping[str, typing.Any]
    schedulers: SchedulerSet

    def default_schedulers(self) -> typing.Tuple[str, ...]:
        schedulers = self.schedulers
        return schedulers() if callable(schedulers) else schedulers

    def _grid(
        self,
        scale: typing.Optional[RunScale],
        seed: typing.Optional[int],
        params: typing.Mapping[str, typing.Any],
    ) -> Grid:
        """The call's parameters; only a registry-resolved scheduler set
        may be overridden."""
        allowed = set(self.defaults)
        if callable(self.schedulers):
            allowed.add("schedulers")
        unknown = sorted(set(params) - allowed)
        if unknown:
            raise TypeError(f"{self.id} has no parameter(s) {unknown}")
        values = {**self.defaults, **params}
        if values.get("schedulers") is None:
            values["schedulers"] = self.default_schedulers()
        else:
            values["schedulers"] = tuple(values["schedulers"])
        return Grid(scale=scale, seed=seed, **values)

    def _output(
        self,
        grid: Grid,
        headers: typing.List[str],
        rows: typing.List[typing.List[object]],
    ) -> ExperimentOutput:
        return ExperimentOutput(
            experiment_id=self.id,
            title=self.title.format(**vars(grid)),
            headers=headers,
            rows=rows,
            paper_reference=self.paper_reference,
        )


def _scheduler_columns(grid: Grid) -> typing.Tuple[str, ...]:
    return grid.schedulers


def _same(row: typing.Any) -> typing.Any:
    return row


@dataclasses.dataclass(frozen=True, eq=False)
class Figure(Declaration):
    """A table or figure of measured cells: one row per ``rows(grid)``
    key, one column per ``columns(grid)`` key (by default the scheduler
    set), and ``cell(grid, row, column)`` for each pair.  The first
    column holds ``row_label(row)``; ``header(column)`` heads every
    other.
    """

    rows: typing.Callable[[Grid], typing.Iterable[typing.Any]]
    cell: typing.Callable[[Grid, typing.Any, typing.Any], Cell]
    columns: typing.Callable[[Grid], typing.Iterable[typing.Any]] = (
        _scheduler_columns
    )
    row_label: typing.Callable[[typing.Any], object] = _same
    header: typing.Callable[[typing.Any], str] = str

    def __call__(
        self,
        scale: RunScale = QUICK,
        seed: int = 0,
        *,
        runner: typing.Optional["ParallelRunner"] = None,
        **params: typing.Any,
    ) -> ExperimentOutput:
        grid = self._grid(scale, seed, params)
        rows = list(self.rows(grid))
        columns = list(self.columns(grid))
        cells = [
            [self.cell(grid, row, column) for column in columns]
            for row in rows
        ]
        results = _run_jobs(
            (job for line in cells for cell in line for job in cell.jobs),
            runner,
            label=self.id,
        )
        body = [
            [self.row_label(row)]
            + [cell.value(*[results[job] for job in cell.jobs]) for cell in line]
            for row, line in zip(rows, cells)
        ]
        return self._output(
            grid, [self.axis] + [self.header(c) for c in columns], body
        )


@dataclasses.dataclass(frozen=True, eq=False)
class DerivedFigure(Declaration):
    """A table or figure computed from ``source``'s output.

    ``source_params(grid)`` are the source's parameters for one call;
    ``compute(source_output, grid)`` returns the column headers after
    ``axis`` and the rows.
    """

    source: Figure
    source_params: typing.Callable[[Grid], typing.Mapping[str, typing.Any]]
    compute: typing.Callable[
        [ExperimentOutput, Grid],
        typing.Tuple[typing.List[str], typing.List[typing.List[object]]],
    ]

    def __call__(
        self,
        scale: RunScale = QUICK,
        seed: int = 0,
        *,
        runner: typing.Optional["ParallelRunner"] = None,
        **params: typing.Any,
    ) -> ExperimentOutput:
        grid = self._grid(scale, seed, params)
        source = self.source(
            scale, seed, runner=runner, **self.source_params(grid)
        )
        return self._derived(source, grid)

    def derive(
        self, source_output: ExperimentOutput, **params: typing.Any
    ) -> ExperimentOutput:
        """This figure from an already computed source output."""
        return self._derived(source_output, self._grid(None, None, params))

    def _derived(
        self, source_output: ExperimentOutput, grid: Grid
    ) -> ExperimentOutput:
        headers, rows = self.compute(source_output, grid)
        return self._output(grid, [self.axis] + headers, rows)


def figures() -> typing.Tuple[Declaration, ...]:
    """Every table and figure of the paper's evaluation, in paper order."""
    from repro.experiments import exp1, exp2, exp3

    return exp1.FIGURES + exp2.FIGURES + exp3.FIGURES
