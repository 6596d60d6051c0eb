"""Experiment 1 (Section 5.1): batches that are frequently blocked.

Pattern 1: ``r(F1:1) -> r(F2:5) -> w(F1:0.2) -> w(F2:1)`` with F1, F2
drawn distinct from NumFiles files; X-locks from the first touch of each
file.  This experiment backs Fig. 8, Table 2, Fig. 9, Table 3, Fig. 10
and Fig. 11, each declared once below; calling a declaration runs it
(:mod:`repro.experiments.common` has the driver).
"""

from __future__ import annotations

import math
import typing

from repro.core.registry import grid_schedulers
from repro.experiments.common import (
    C2PLM_MPL_CANDIDATES,
    DerivedFigure,
    ExperimentOutput,
    Figure,
    Grid,
)
from repro.machine.config import MachineConfig
from repro.runner.spec import WorkloadSpec

# re-exported for perfbench/spans.py, which wraps this name; the figures
# run the bisection through repro.experiments.common
from repro.sim.experiment import find_throughput_batch  # noqa: F401

#: default arrival-rate grid for the rate sweeps (TPS)
RATE_GRID = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4)

#: the declustering degrees of the paper
DD_GRID = (1, 2, 4, 8)


def _workload(rate: float, num_files: int) -> WorkloadSpec:
    return WorkloadSpec.make("exp1", rate, num_files=num_files)


def _config(dd: int, num_files: int) -> MachineConfig:
    return MachineConfig(dd=dd, num_files=num_files)


figure8 = Figure(
    id="fig8",
    title="Fig. 8: arrival rate vs response time (DD=1, NumFiles={num_files})",
    paper_reference=(
        "Resources saturate at lambda_NODC = 1.04 TPS; every scheduler "
        "hits RT = 70 s below 70% of that rate (characteristic #1)."
    ),
    axis="lambda_tps",
    defaults={"rates": RATE_GRID, "num_files": 16},
    schedulers=grid_schedulers,
    rows=lambda g: g.rates,
    cell=lambda g, rate, scheduler: g.rt(
        scheduler, _workload(rate, g.num_files), _config(1, g.num_files)
    ),
)

table2 = Figure(
    id="table2",
    title="Table 2: NumFiles vs throughput (TPS) at RT = 70 s, DD = 1",
    paper_reference=(
        "Paper values (8/16/32/64 files): NODC 1.02-1.04, ASL .45/.72/.9/.96, "
        "GOW .44/.67/.86/.95, LOW .44/.65/.83/.94, C2PL .25/.35/.5/.62, "
        "OPT .16/.24/.3/.38"
    ),
    axis="num_files",
    defaults={"file_counts": (8, 16, 32, 64)},
    schedulers=grid_schedulers,
    rows=lambda g: g.file_counts,
    cell=lambda g, num_files, scheduler: g.throughput(
        scheduler, _workload(1.0, num_files), _config(1, num_files)
    ),
)

figure9 = Figure(
    id="fig9",
    title=(
        "Fig. 9: declustering vs throughput at RT = 70 s "
        "(NumFiles={num_files})"
    ),
    paper_reference=(
        "At DD = 2, ASL/LOW/GOW reach ~85% useful resource utilisation, "
        "1.5x the throughput of C2PL; all lock-based converge by DD = 8."
    ),
    axis="dd",
    defaults={"dds": DD_GRID, "num_files": 16},
    schedulers=grid_schedulers,
    rows=lambda g: g.dds,
    cell=lambda g, dd, scheduler: g.throughput(
        scheduler, _workload(1.0, g.num_files), _config(dd, g.num_files)
    ),
)


def _table3_cell(g: Grid, dd: int, column: str):
    workload = _workload(g.rate, g.num_files)
    config = _config(dd, g.num_files)
    if column == "C2PL+M":
        return g.c2plm(workload, config, g.mpl_candidates)
    return g.rt(column, workload, config)


#: Table 3's C2PL column is C2PL+M (the best MPL-controlled C2PL), as in
#: the paper's table
table3 = Figure(
    id="table3",
    title="Table 3: declustering vs response time (s) at lambda = {rate} TPS",
    paper_reference=(
        "Paper (DD=1/2/4/8): NODC 141/103/74/58, ASL 387/183/83/48, "
        "GOW 429/233/102/47, LOW 430/245/107/47, C2PL+M 669/479/250/50, "
        "OPT 783/555/494/490"
    ),
    axis="dd",
    defaults={
        "dds": DD_GRID,
        "num_files": 16,
        "rate": 1.2,
        "mpl_candidates": C2PLM_MPL_CANDIDATES,
    },
    schedulers=("NODC", "ASL", "GOW", "LOW", "C2PL+M", "OPT"),
    rows=lambda g: g.dds,
    cell=_table3_cell,
)


def _speedups_vs_first_row(output: ExperimentOutput, _g: Grid):
    """Response-time speedups against the first (DD = 1) row."""
    base_row = output.rows[0]
    rows = []
    for row in output.rows:
        new_row: typing.List[object] = [row[0]]
        for base, current in zip(base_row[1:], row[1:]):
            if (
                isinstance(current, float)
                and current > 0
                and not math.isnan(current)
                and not math.isnan(typing.cast(float, base))
            ):
                new_row.append(typing.cast(float, base) / current)
            else:
                new_row.append(float("nan"))
        rows.append(new_row)
    return output.headers[1:], rows


figure10 = DerivedFigure(
    id="fig10",
    title="Fig. 10: declustering vs response-time speedup (lambda = 1.2 TPS)",
    paper_reference=(
        "ASL/LOW/GOW speed up near-linearly (4-5x at DD=4, ~9x at DD=8); "
        "C2PL+M reaches only ~2.5x at DD=4; OPT ~1.5x; NODC ~2x at DD=8."
    ),
    axis="dd",
    defaults=table3.defaults,
    schedulers=table3.schedulers,
    source=table3,
    source_params=lambda g: {name: getattr(g, name) for name in table3.defaults},
    compute=_speedups_vs_first_row,
)

figure11 = Figure(
    id="fig11",
    title="Fig. 11: arrival rate vs response-time speedup (DD={dd})",
    paper_reference=(
        "At heavy loads (lambda above C2PL's DD=4 throughput of ~0.85 "
        "TPS) ASL/LOW/GOW keep the best speedup; C2PL and OPT only "
        "look good at light loads."
    ),
    axis="lambda_tps",
    defaults={
        "rates": (0.4, 0.6, 0.8, 1.0, 1.2, 1.4),
        "dd": 4,
        "num_files": 16,
    },
    schedulers=grid_schedulers,
    rows=lambda g: g.rates,
    cell=lambda g, rate, scheduler: g.speedup(
        scheduler,
        _workload(rate, g.num_files),
        _config(1, g.num_files),
        _config(g.dd, g.num_files),
    ),
)

FIGURES = (figure8, table2, figure9, table3, figure10, figure11)
