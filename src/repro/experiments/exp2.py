"""Experiment 2 (Section 5.2): batches updating a hot set.

Pattern 2: ``r(B:5) -> w(F1:1) -> w(F2:1)`` with B from 8 read-only files
and F1 != F2 from 8 hot files; every node is home to one read-only and
one hot file.  Backs Table 4 and Fig. 12, each declared once below
(:mod:`repro.experiments.common` has the driver).
"""

from __future__ import annotations

from repro.core.registry import grid_schedulers
from repro.experiments.common import Figure, Grid
from repro.machine.config import MachineConfig
from repro.runner.spec import WorkloadSpec


def _workload(rate: float) -> WorkloadSpec:
    return WorkloadSpec.make("exp2", rate)


def _config(dd: int) -> MachineConfig:
    return MachineConfig(dd=dd, num_files=16)


def _table4_rows(g: Grid):
    return [("thruput", dd) for dd in g.dds] + [
        ("resp.time", dd) for dd in g.dds
    ]


def _table4_cell(g: Grid, row, scheduler: str):
    metric, dd = row
    if metric == "thruput":
        return g.throughput(scheduler, _workload(1.0), _config(dd))
    return g.rt(scheduler, _workload(g.rate), _config(dd))


#: one row per (metric, DD) pair, matching the paper's layout
table4 = Figure(
    id="table4",
    title=(
        "Table 4: hot-set throughput (TPS at RT = 70 s) and response "
        "time (s at {rate} TPS) vs DD"
    ),
    paper_reference=(
        "Paper throughput (DD=1/2/4): NODC 1.1/1.11/1.13, ASL .4/.7/1.03, "
        "GOW .57/.88/1.1, LOW .77/1.01/1.12, C2PL .7/.92/1.09, OPT .38/.55/.85. "
        "Response time: NODC 112/97/87, ASL 611/380/116, GOW 500/252/80, "
        "LOW 321/133/57, C2PL 432/242/118, OPT 751/746/457. "
        "LOW best, then C2PL, then GOW; ASL worst lock-based at low DD."
    ),
    axis="metric",
    defaults={"dds": (1, 2, 4), "rate": 1.2},
    schedulers=grid_schedulers,
    rows=_table4_rows,
    cell=_table4_cell,
    row_label=lambda row: f"{row[0]} DD={row[1]}",
)

figure12 = Figure(
    id="fig12",
    title="Fig. 12: hot-set declustering vs RT speedup (lambda = {rate} TPS)",
    paper_reference=(
        "LOW has the best throughput *and* the best speedup; ASL "
        "speeds up better than C2PL despite worse absolute RT; "
        "NODC's speedup is only ~1.57 at DD=8 (very heavy load)."
    ),
    axis="dd",
    defaults={"dds": (1, 2, 4, 8), "rate": 1.2},
    schedulers=grid_schedulers,
    rows=lambda g: g.dds,
    cell=lambda g, dd, scheduler: g.speedup(
        scheduler, _workload(g.rate), _config(g.dds[0]), _config(dd)
    ),
)

FIGURES = (table4, figure12)
