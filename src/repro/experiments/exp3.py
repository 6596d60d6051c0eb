"""Experiment 3 (Section 5.3): sensitivity to inexact I/O declarations.

Pattern 1 with declared costs ``C = C0 * (1 + x)``, ``x ~ N(0, sigma)``
(clamped to 0 below x = -1).  GOW and LOW schedule from the erroneous
declarations while the actual scans use the exact costs.  Backs Fig. 13
and Table 5, each declared once below; C2PL (which cannot avoid
blocking chains at all) is the lower bound the paper compares against.
Every (scheduler, DD, sigma) bisection of Fig. 13 -- the C2PL floors
included -- runs in one lockstep search.
"""

from __future__ import annotations

import math
import typing

from repro.core.registry import grid_schedulers
from repro.experiments.common import DerivedFigure, ExperimentOutput, Figure, Grid
from repro.machine.config import MachineConfig
from repro.runner.spec import WorkloadSpec

#: the error levels plotted in Fig. 13
SIGMA_GRID = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)


def _workload(sigma: float, num_files: int) -> WorkloadSpec:
    return WorkloadSpec.make("exp3", 1.0, sigma=sigma, num_files=num_files)


def _figure13_schedulers() -> typing.Tuple[str, ...]:
    """GOW and LOW, then every registered modern scheduler.

    GOW and LOW schedule from the declared costs the error model
    perturbs.  The modern schedulers read no declared costs, so their
    columns do not move with sigma; they are here as the arena's
    line-up, beside the C2PL floor.
    """
    return ("GOW", "LOW") + grid_schedulers(("modern",))


def _figure13_columns(g: Grid):
    """(scheduler, DD, is the C2PL floor) per column."""
    columns = [(s, dd, False) for dd in g.dds for s in g.schedulers]
    if g.include_c2pl_floor:
        columns += [("C2PL", dd, True) for dd in g.dds]
    return columns


def _figure13_cell(g: Grid, sigma: float, column):
    scheduler, dd, floor = column
    # C2PL ignores declarations, so its floor is measured once, at sigma 0
    return g.throughput(
        scheduler,
        _workload(0.0 if floor else sigma, g.num_files),
        MachineConfig(dd=dd, num_files=g.num_files),
    )


#: one column per (scheduler, DD) pair, then a C2PL floor column per DD
figure13 = Figure(
    id="fig13",
    title="Fig. 13: declaration-error sigma vs throughput at RT = 70 s",
    paper_reference=(
        "GOW and LOW stay well above the C2PL floor even at sigma = 1 "
        "(1.45-1.7x at DD=1-2) and sigma = 10; degradation shrinks as "
        "DD grows."
    ),
    axis="sigma",
    defaults={
        "sigmas": SIGMA_GRID,
        "dds": (1, 2, 4),
        "num_files": 16,
        "include_c2pl_floor": True,
    },
    schedulers=_figure13_schedulers,
    rows=lambda g: g.sigmas,
    columns=_figure13_columns,
    cell=_figure13_cell,
    header=lambda column: f"{column[0]}@DD={column[1]}",
)


def _degradation(output: ExperimentOutput, g: Grid):
    """TPS(sigma = 10) / TPS(sigma = 0) in %, per scheduler and DD."""
    sigma_column = output.column("sigma")
    try:
        base_index = sigma_column.index(0.0)
        worst_index = sigma_column.index(10.0)
    except ValueError as exc:
        raise ValueError(
            "table5 needs sigma = 0 and sigma = 10 rows in the Fig. 13 data"
        ) from exc
    columns = output.as_dict()
    rows = []
    for scheduler in g.schedulers:
        row: typing.List[object] = [scheduler]
        for dd in g.dds:
            series = columns[f"{scheduler}@DD={dd}"]
            base = typing.cast(float, series[base_index])
            worst = typing.cast(float, series[worst_index])
            if base and not math.isnan(base) and not math.isnan(worst):
                row.append(100.0 * worst / base)
            else:
                row.append(float("nan"))
        rows.append(row)
    return [f"DD={dd}" for dd in g.dds], rows


table5 = DerivedFigure(
    id="table5",
    title="Table 5: degradation ratio (%) = TPS(sigma=10) / TPS(sigma=0)",
    paper_reference=(
        "Paper: GOW 94/96/97.5%, LOW 77/84/93% at DD=1/2/4 -- GOW is "
        "less sensitive (chain-form constraint); both improve with DD."
    ),
    axis="scheduler",
    defaults={"dds": (1, 2, 4), "num_files": 16},
    schedulers=("GOW", "LOW"),
    source=figure13,
    source_params=lambda g: {
        "schedulers": g.schedulers,
        "sigmas": (0.0, 10.0),
        "dds": g.dds,
        "num_files": g.num_files,
        "include_c2pl_floor": False,
    },
    compute=_degradation,
)

FIGURES = (figure13, table5)
