"""The function every run executes: one spec -> one result.

The in-process path calls :func:`execute_spec` directly, and each
worker of :mod:`repro.runner.pool` calls it once per task.

Traced specs (``spec.trace``) run with a :class:`MemoryRecorder` and
write their event stream to ``<traces_dir>/<cache_key>.trace.jsonl``
before returning; time-series specs (``spec.timeseries``) run with a
:class:`TimeSeriesSampler` and write the sampled trajectories to
``<series_dir>/<cache_key>.series.json``.  Both artifacts are
content-addressed by the spec's cache key, so re-running the same spec
rewrites the same stream and a batch manifest can reference it without
coordination.  Both are written atomically (:mod:`repro.artifact`): a
run that fails while writing leaves no file at the content-addressed
path, so a file that exists there is complete.

When the runner hands a job a :class:`~repro.obs.telemetry.WorkerTelemetry`
context, the run reports ``run.start`` immediately (with its pid),
heartbeats through the engine's progress hook while simulating, and
``run.done`` / ``run.error`` (with traceback) on exit.  The context
sends each record to the parent -- over the pool worker's pipe, or
straight to the stream writer in-process -- and never opens a file: the
parent alone writes ``telemetry.jsonl``.  Telemetry never changes the
returned result.
"""

from __future__ import annotations

import os
import pathlib
import time
import typing

from repro import artifact
from repro.obs.recorder import MemoryRecorder
from repro.runner.spec import RunSpec
from repro.sim.metrics import SimulationResult
from repro.sim.simulation import Simulation

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import WorkerTelemetry

#: test hook (stall-detection tests only): ``"cell:seconds[,...]"`` makes
#: the named cells sleep -- heartbeat-free -- right after ``run.start``,
#: so the parent's stall detector fires deterministically
STALL_TEST_ENV = "REPRO_RUNNER_TEST_STALL"
#: test hook (worker-death tests only): ``"cell[,...]"`` makes the named
#: cells kill their worker process abruptly after ``run.start``
EXIT_TEST_ENV = "REPRO_RUNNER_TEST_EXIT"


def _apply_test_hooks(cell: int) -> None:
    """Honour the stall/death test hooks (telemetry-context runs only)."""
    stall = os.environ.get(STALL_TEST_ENV, "")
    for part in stall.split(","):
        if ":" in part:
            target, seconds = part.split(":", 1)
            if target.strip() == str(cell):
                time.sleep(float(seconds))
    exits = os.environ.get(EXIT_TEST_ENV, "")
    if any(part.strip() == str(cell) for part in exits.split(",") if part):
        os._exit(66)  # simulate an abrupt worker death (OOM kill etc.)

#: sample interval of runner-produced series artifacts (simulated ms);
#: fixed so equal specs always produce identical artifacts
SERIES_INTERVAL_MS = 1_000.0


def trace_artifact_path(
    traces_dir: typing.Union[str, pathlib.Path], spec: RunSpec
) -> pathlib.Path:
    """Where a traced spec's JSONL artifact lives (content-addressed)."""
    return pathlib.Path(traces_dir) / f"{spec.cache_key()}.trace.jsonl"


def series_artifact_path(
    series_dir: typing.Union[str, pathlib.Path], spec: RunSpec
) -> pathlib.Path:
    """Where a sampled spec's series artifact lives (content-addressed)."""
    return pathlib.Path(series_dir) / f"{spec.cache_key()}.series.json"


def _spec_meta(spec: RunSpec) -> typing.Dict[str, typing.Any]:
    return {
        "scheduler": spec.scheduler,
        "workload": spec.workload.kind,
        "rate_tps": spec.workload.rate_tps,
        "seed": spec.seed,
        "duration_ms": spec.duration_ms,
    }


def execute_spec(
    spec: RunSpec,
    traces_dir: typing.Optional[typing.Union[str, pathlib.Path]] = None,
    series_dir: typing.Optional[typing.Union[str, pathlib.Path]] = None,
    telemetry: typing.Optional["WorkerTelemetry"] = None,
) -> SimulationResult:
    """Run the simulation a spec describes; pure given the spec.

    Tracing, sampling and telemetry observe without perturbing, so the
    returned result is byte-identical whatever combination of
    ``spec.trace`` / ``spec.timeseries`` / ``telemetry`` is set; only
    the artifacts on disk differ.  A trace (series) is recorded only
    when ``traces_dir`` (``series_dir``) is given to write it under.
    """
    if telemetry is not None:
        telemetry.start()
        _apply_test_hooks(telemetry.cell)
    started = time.perf_counter()
    try:
        # buffer only what will be written
        recorder = (
            MemoryRecorder() if spec.trace and traces_dir is not None
            else None
        )
        sampler = None
        if spec.timeseries and series_dir is not None:
            from repro.obs.timeseries import TimeSeriesSampler

            sampler = TimeSeriesSampler(interval_ms=SERIES_INTERVAL_MS)
        simulation = Simulation(
            spec.config,
            spec.workload.build(),
            scheduler=spec.scheduler,
            seed=spec.seed,
            duration_ms=spec.duration_ms,
            warmup_ms=spec.warmup_ms,
            recorder=recorder,
            sampler=sampler,
        )
        if telemetry is not None:
            telemetry.install(simulation.env)
        result = simulation.run()
        if recorder is not None:
            from repro.obs.export import write_jsonl

            write_jsonl(
                recorder.events, trace_artifact_path(traces_dir, spec),
                meta=_spec_meta(spec), dropped=recorder.dropped,
            )
        if sampler is not None:
            from repro.obs.timeseries import SERIES

            artifact.write(
                series_artifact_path(series_dir, spec), SERIES,
                sampler.to_dict(meta=_spec_meta(spec)), indent=None,
            )
    except BaseException as exc:
        if telemetry is not None:
            telemetry.error(exc)
        raise
    if telemetry is not None:
        telemetry.done(
            time.perf_counter() - started, simulation.env.events_processed
        )
    return result

