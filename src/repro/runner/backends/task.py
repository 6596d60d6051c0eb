"""The unit of work backends move around: one JSON-able task dict.

A task fully describes one run -- kind (always ``sweep``), cell index,
spec, artifact directories and the optional worker-telemetry context --
as plain data, so every backend shares one contract: the local pool
pickles the dict to a pool worker, the asyncio backend writes it to a
subprocess's stdin.

:func:`run_task` executes a task wherever it lands and returns the
*live* :class:`~repro.sim.metrics.SimulationResult`.  The asyncio
backend carries it back over stdout as ``to_dict`` JSON and restores it
with ``from_dict`` -- the round-trip the result cache uses, so results
stay byte-identical whichever backend carried them.
"""

from __future__ import annotations

import typing

from repro.runner.spec import RunSpec
from repro.runner.worker import execute_spec
from repro.sim.metrics import SimulationResult

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import WorkerTelemetry

Task = typing.Dict[str, typing.Any]


def sweep_task(
    cell: int,
    spec: RunSpec,
    traces_dir: typing.Optional[str] = None,
    series_dir: typing.Optional[str] = None,
    telemetry: typing.Optional["WorkerTelemetry"] = None,
) -> Task:
    """One cache-missed sweep cell as a backend-portable task."""
    return {
        "kind": "sweep",
        "cell": cell,
        "spec": spec.to_dict(),
        "traces_dir": traces_dir,
        "series_dir": series_dir,
        "telemetry": telemetry.to_dict() if telemetry is not None else None,
    }


def run_task(task: Task) -> SimulationResult:
    """Execute ``task`` in this process; returns the live result object."""
    if task["kind"] != "sweep":
        raise ValueError(f"unknown task kind {task.get('kind')!r}")
    spec = RunSpec.from_dict(task["spec"])
    context = task.get("telemetry")
    telemetry = None
    if context is not None:
        from repro.obs.telemetry import WorkerTelemetry

        telemetry = WorkerTelemetry.from_dict(context)
    return execute_spec(
        spec,
        traces_dir=task.get("traces_dir"),
        series_dir=task.get("series_dir"),
        telemetry=telemetry,
    )


def run_task_indexed(task: Task) -> typing.Tuple[int, typing.Any]:
    """Pool-friendly wrapper carrying the cell index through the pool."""
    return task["cell"], run_task(task)
