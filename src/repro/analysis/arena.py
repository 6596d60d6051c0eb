"""The scheduler arena: a pinned head-to-head matrix with a report.

The paper compares six 1991 schedulers; the arena re-asks its question
-- how much does concurrency control cost, and how much does parallelism
buy back -- across the full registered roster, modern families included.
A pinned ``scheduler x rate x DD`` matrix fans out through the cached
:class:`~repro.runner.ParallelRunner`; the outcome is an ARENA artifact
(:mod:`repro.artifact`: machine-checkable, schema-versioned) plus a
markdown head-to-head report, both written under ``results/arena/`` by
``python -m repro arena``.

Two passes feed one report:

1. **Metrics pass** -- ``run_batch`` over the matrix (byte-deterministic
   and cache-served on repeats): throughput, response times, abort rate,
   contention counters, utilisation.
2. **Explain pass** (optional) -- traced re-runs of the same specs
   folded through :func:`repro.obs.attrib.fold_trace_path`: the
   simulated time budget (queued / blocked / executing / wasted
   transaction-seconds), answering *why* each scheduler's response
   times look the way they do.
"""

from __future__ import annotations

import typing

from repro.artifact import Family, require
from repro.core.registry import FAMILIES, family_of, grid_schedulers
from repro.runner.spec import RunSpec, paper_workload

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.runner.runner import ParallelRunner
    from repro.sim.metrics import SimulationResult

#: the pinned default matrix axes
DEFAULT_RATES = (0.8, 1.2)
DEFAULT_DDS = (1, 4)
DEFAULT_DURATION_MS = 150_000.0
DEFAULT_WARMUP_MS = 30_000.0

#: per-cell metric fields every artifact must carry
CELL_FIELDS = (
    "scheduler",
    "family",
    "rate_tps",
    "dd",
    "seed",
    "completed",
    "throughput_tps",
    "mean_response_s",
    "p95_response_s",
    "abort_rate",
    "blocks",
    "delays",
    "restarts",
    "admission_rejections",
    "cn_utilisation",
    "dpn_utilisation",
)

#: fields an optional per-cell ``time_budget`` mapping must carry
TIME_BUDGET_FIELDS = (
    "queued_ms",
    "blocked_ms",
    "executing_ms",
    "wasted_ms",
    "total_ms",
    "fractions",
)


def scheduler_family(name: str) -> str:
    """Family tag for a (possibly parameterised) scheduler name:
    ``DGCC(B=16)`` resolves through its base name ``DGCC``."""
    return family_of(name.split("(", 1)[0])


def arena_specs(
    schedulers: typing.Sequence[str],
    rates: typing.Sequence[float] = DEFAULT_RATES,
    dds: typing.Sequence[int] = DEFAULT_DDS,
    *,
    workload: str = "exp1",
    num_files: int = 16,
    sigma: float = 1.0,
    seed: int = 0,
    duration_ms: float = DEFAULT_DURATION_MS,
    warmup_ms: float = DEFAULT_WARMUP_MS,
) -> typing.List[RunSpec]:
    """The matrix as RunSpecs, in (rate, dd, scheduler) order."""
    from repro.machine.config import MachineConfig

    return [
        RunSpec(
            scheduler=scheduler,
            workload=paper_workload(workload, rate, num_files, sigma),
            config=MachineConfig(dd=dd, num_files=num_files),
            seed=seed,
            duration_ms=duration_ms,
            warmup_ms=warmup_ms,
        )
        for rate in rates
        for dd in dds
        for scheduler in schedulers
    ]


def _abort_rate(result: "SimulationResult") -> float:
    attempts = result.completed + result.restarts
    return result.restarts / attempts if attempts else 0.0


def _budget_summary(
    budget: typing.Optional[typing.Dict[str, typing.Any]],
) -> typing.Optional[typing.Dict[str, typing.Any]]:
    """Slim an :meth:`Attribution.budget` dict down to the per-cell
    ``time_budget`` mapping (None -> no explain pass for this cell)."""
    if budget is None:
        return None
    return {
        "queued_ms": round(budget["queued_ms"], 3),
        "blocked_ms": round(budget["blocked_ms"], 3),
        "executing_ms": round(budget["executing_ms"], 3),
        "wasted_ms": round(budget["wasted_ms"], 3),
        "total_ms": round(budget["total_ms"], 3),
        "fractions": {
            bucket: round(value, 6)
            for bucket, value in budget["fractions"].items()
        },
    }


def arena_payload(
    specs: typing.Sequence[RunSpec],
    results: typing.Sequence[typing.Optional["SimulationResult"]],
    *,
    time_budgets: typing.Optional[
        typing.Sequence[typing.Optional[typing.Dict[str, typing.Any]]]
    ] = None,
) -> typing.Dict[str, typing.Any]:
    """Assemble the ARENA payload.

    ``results`` aligns with ``specs`` (None marks a failed cell, which
    is dropped with a note); ``time_budgets`` (dicts in the shape of
    :meth:`Attribution.budget`, from the traced explain pass) optionally
    aligns too and contributes the why columns.
    """
    if len(results) != len(specs):
        raise ValueError(
            f"results/specs length mismatch: {len(results)} vs {len(specs)}"
        )
    if time_budgets is not None and len(time_budgets) != len(specs):
        raise ValueError(
            f"time_budgets/specs length mismatch: "
            f"{len(time_budgets)} vs {len(specs)}"
        )
    cells = []
    failed = 0
    for index, (spec, result) in enumerate(zip(specs, results)):
        if result is None:
            failed += 1
            continue
        cell: typing.Dict[str, typing.Any] = {
            "scheduler": spec.scheduler,
            "family": scheduler_family(spec.scheduler),
            "workload": spec.workload.kind,
            "rate_tps": spec.workload.rate_tps,
            "dd": spec.config.dd,
            "seed": spec.seed,
            "duration_ms": spec.duration_ms,
            "warmup_ms": spec.warmup_ms,
            "completed": result.completed,
            "throughput_tps": round(result.throughput_tps, 6),
            "mean_response_s": round(result.mean_response_s, 6),
            "p95_response_s": round(result.p95_response_ms / 1000.0, 6),
            "abort_rate": round(_abort_rate(result), 6),
            "blocks": result.blocks,
            "delays": result.delays,
            "restarts": result.restarts,
            "admission_rejections": result.admission_rejections,
            "cn_utilisation": round(result.cn_utilisation, 6),
            "dpn_utilisation": round(result.dpn_utilisation, 6),
        }
        budget = _budget_summary(
            time_budgets[index] if time_budgets is not None else None
        )
        if budget is not None:
            cell["time_budget"] = budget
        cells.append(cell)
    return {"cells": cells, "failed_cells": failed}


def validate_arena(payload: typing.Dict[str, typing.Any]) -> int:
    """Check an ARENA payload; returns the cell count.

    Raises ``ValueError`` with a pinpointed message on the first
    violation.
    """
    cells = payload.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ValueError("cells must be a non-empty list")
    for index, cell in enumerate(cells):
        require(cell, CELL_FIELDS, f"cell {index}")
        if cell["family"] not in FAMILIES:
            raise ValueError(
                f"cell {index} has unknown family {cell['family']!r}"
            )
        budget = cell.get("time_budget")
        if budget is not None:
            if not isinstance(budget, dict):
                raise ValueError(
                    f"cell {index} time_budget must be a mapping"
                )
            require(budget, TIME_BUDGET_FIELDS, f"cell {index} time_budget")
            if not isinstance(budget["fractions"], dict):
                raise ValueError(
                    f"cell {index} time_budget fractions must be a mapping"
                )
    return len(cells)


def _groups(
    cells: typing.Sequence[typing.Dict[str, typing.Any]],
) -> typing.List[
    typing.Tuple[
        typing.Tuple[str, float, int],
        typing.List[typing.Dict[str, typing.Any]],
    ]
]:
    """Cells grouped by (workload, rate, dd), in first-seen order."""
    order: typing.List[typing.Tuple[str, float, int]] = []
    grouped: typing.Dict[
        typing.Tuple[str, float, int],
        typing.List[typing.Dict[str, typing.Any]],
    ] = {}
    for cell in cells:
        key = (cell["workload"], cell["rate_tps"], cell["dd"])
        if key not in grouped:
            order.append(key)
            grouped[key] = []
        grouped[key].append(cell)
    return [(key, grouped[key]) for key in order]


def _why_columns(cell: typing.Dict[str, typing.Any]) -> str:
    """The queued/blocked/executing/wasted share cells ('-' quartet
    when the cell has no explain pass)."""
    budget = cell.get("time_budget")
    if not budget:
        return "- | - | - | -"
    fractions = budget["fractions"]
    return " | ".join(
        f"{100.0 * fractions.get(bucket, 0.0):.0f}%"
        for bucket in ("queued", "blocked", "executing", "wasted")
    )


def render_arena_markdown(
    payload: typing.Dict[str, typing.Any],
    created: typing.Optional[str] = None,
    git_sha: typing.Optional[str] = None,
) -> str:
    """The head-to-head report as a markdown document; ``created`` and
    ``git_sha`` (the artifact envelope's stamps) head it when given."""
    lines = ["# Scheduler arena", ""]
    meta_bits = []
    if created:
        meta_bits.append(f"generated {created}")
    if git_sha:
        meta_bits.append(f"commit `{git_sha}`")
    meta_bits.append(f"{len(payload['cells'])} cells")
    if payload.get("failed_cells"):
        meta_bits.append(f"{payload['failed_cells']} failed cell(s) dropped")
    lines.append("*" + ", ".join(meta_bits) + "*")
    lines.append("")

    wins: typing.Dict[str, int] = {}
    for (workload, rate, dd), cells in _groups(payload["cells"]):
        lines.append(f"## {workload} @ {rate:g} TPS, DD={dd}")
        lines.append("")
        lines.append(
            "| scheduler | family | TPS | mean RT (s) | p95 RT (s) "
            "| abort rate | blocks | delays | CN util "
            "| %queued | %blocked | %exec | %wasted |"
        )
        lines.append("|---|---|---|---|---|---|---|---|---|---|---|---|"
                     "---|")
        best = max(cells, key=lambda c: c["throughput_tps"])
        wins[best["scheduler"]] = wins.get(best["scheduler"], 0) + 1
        for cell in cells:
            marker = " **(best)**" if cell is best else ""
            lines.append(
                f"| {cell['scheduler']}{marker} "
                f"| {cell['family']} "
                f"| {cell['throughput_tps']:.3f} "
                f"| {cell['mean_response_s']:.2f} "
                f"| {cell['p95_response_s']:.2f} "
                f"| {cell['abort_rate']:.3f} "
                f"| {cell['blocks']} "
                f"| {cell['delays']} "
                f"| {cell['cn_utilisation']:.3f} "
                f"| {_why_columns(cell)} |"
            )
        lines.append("")

    lines.append("## Head-to-head")
    lines.append("")
    lines.append("| scheduler | family | group wins (by TPS) |")
    lines.append("|---|---|---|")
    for name in sorted(wins, key=lambda n: (-wins[n], n)):
        lines.append(
            f"| {name} | {scheduler_family(name)} | {wins[name]} |"
        )
    lines.append("")
    return "\n".join(lines)


def default_arena_schedulers() -> typing.Tuple[str, ...]:
    """The pinned line-up: every grid-eligible paper + modern scheduler."""
    return grid_schedulers(("paper", "modern"))


#: the arena matrix: one metrics row per (rate, DD, scheduler) cell
ARENA = Family("arena", 1, validate_arena)
