"""`repro explain`: the EXPLAIN artifact over a folded trace.

:mod:`repro.obs.attrib` turns a trace stream into span timelines; this
module turns that attribution into a durable artifact pair --
``EXPLAIN.json`` (the EXPLAIN family of :mod:`repro.artifact`) and
``EXPLAIN.md`` (the human report) -- mirroring how the arena publishes
``ARENA.json`` + ``ARENA.md``.  The payload carries the batch time
budget, the lock-hotspot table, the makespan critical path, the
blocking-graph edges, anomaly flags, and one summary row per logical
transaction;
:func:`validate_explain` re-checks the conservation invariant on every
committed row, so a hand-edited artifact cannot silently lie about
where the time went.
"""

from __future__ import annotations

import math
import pathlib
import typing

from repro.artifact import Family, require
from repro.obs.attrib import (
    CONSERVATION_ABS_TOL,
    CONSERVATION_REL_TOL,
    Attribution,
    fold_trace,
    fold_trace_path,
)

PathLike = typing.Union[str, pathlib.Path]

#: buckets of the batch time budget, in render order
BUDGET_BUCKETS = ("queued", "blocked", "executing", "wasted")

#: top-level payload fields every artifact must carry
EXPLAIN_FIELDS = (
    "source",
    "budget",
    "hotspots",
    "critical_path",
    "blocking_edges",
    "anomalies",
    "transactions",
)

#: per-transaction-row fields
TXN_FIELDS = (
    "txn",
    "label",
    "status",
    "attempts",
    "arrival_ms",
    "end_ms",
    "queued_ms",
    "blocked_ms",
    "executing_ms",
    "wasted_ms",
)


def explain_attribution(
    attribution: Attribution,
    source: typing.Optional[typing.Mapping[str, typing.Any]] = None,
) -> typing.Dict[str, typing.Any]:
    """Assemble the EXPLAIN payload from a folded attribution.

    ``source`` defaults to the trace's own meta record (scheduler, seed,
    workload identity); pass extra keys to record where the trace came
    from (e.g. the artifact path).
    """
    merged_source = dict(attribution.meta)
    if source:
        merged_source.update(source)
    rows = []
    for root in sorted(attribution.transactions):
        timeline = attribution.transactions[root]
        totals = timeline.totals()
        row: typing.Dict[str, typing.Any] = {
            "txn": root,
            "label": timeline.label,
            "status": timeline.status,
            "attempts": len(timeline.attempts),
            "arrival_ms": timeline.arrival,
            "end_ms": timeline.end,
            "queued_ms": totals["queued"],
            "blocked_ms": totals["blocked"],
            "executing_ms": totals["executing"],
            "wasted_ms": totals["wasted"],
        }
        if timeline.response_ms is not None:
            row["response_ms"] = timeline.response_ms
        rows.append(row)
    return {
        "source": merged_source,
        "budget": attribution.budget(),
        "hotspots": attribution.hotspots(),
        "critical_path": attribution.critical_path(),
        "blocking_edges": attribution.blocking_edges(),
        "anomalies": attribution.anomalies(),
        "transactions": rows,
    }


def explain_payload(
    events: typing.Iterable[typing.Mapping[str, typing.Any]],
    source: typing.Optional[typing.Mapping[str, typing.Any]] = None,
) -> typing.Dict[str, typing.Any]:
    """Fold an event stream and assemble its EXPLAIN payload."""
    return explain_attribution(fold_trace(events), source=source)


def explain_trace_path(path: PathLike) -> typing.Dict[str, typing.Any]:
    """Fold a JSONL trace artifact into its EXPLAIN payload."""
    return explain_attribution(
        fold_trace_path(path), source={"trace": str(path)}
    )


def validate_explain(payload: typing.Mapping[str, typing.Any]) -> int:
    """Check an EXPLAIN payload; returns the transaction count.

    Beyond shape checks this re-verifies the conservation invariant on
    every committed transaction row: the four budget buckets must sum to
    the recorded response time (float round-off tolerance only).
    """
    require(payload, EXPLAIN_FIELDS, "payload")
    budget = payload["budget"]
    for bucket in BUDGET_BUCKETS:
        if f"{bucket}_ms" not in budget:
            raise ValueError(f"budget is missing {bucket}_ms")
        if bucket not in budget.get("fractions", {}):
            raise ValueError(f"budget fractions are missing {bucket!r}")
    rows = payload["transactions"]
    if not isinstance(rows, list):
        raise ValueError("transactions must be a list")
    for index, row in enumerate(rows):
        require(row, TXN_FIELDS, f"transaction row {index}")
        if row["status"] == "committed":
            if "response_ms" not in row:
                raise ValueError(
                    f"committed row {index} has no response_ms"
                )
            attributed = (
                row["queued_ms"] + row["blocked_ms"]
                + row["executing_ms"] + row["wasted_ms"]
            )
            if not math.isclose(
                attributed,
                row["response_ms"],
                rel_tol=CONSERVATION_REL_TOL,
                abs_tol=CONSERVATION_ABS_TOL,
            ):
                raise ValueError(
                    f"row {index} (T{row['txn']}): attributed "
                    f"{attributed} ms != response {row['response_ms']} ms"
                )
    return len(rows)


# -- rendering ----------------------------------------------------------------


def render_budget_line(budget: typing.Mapping[str, typing.Any]) -> str:
    """One-line time-budget headline (used by ``repro report`` too)."""
    fractions = budget.get("fractions", {})
    parts = [
        f"{bucket} {100.0 * fractions.get(bucket, 0.0):.1f}%"
        for bucket in BUDGET_BUCKETS
    ]
    return (
        f"time budget ({budget.get('total_ms', 0.0) / 1000.0:.1f} "
        f"txn-seconds): " + " | ".join(parts)
    )


def _budget_bar(
    fractions: typing.Mapping[str, float], width: int = 40
) -> str:
    """An ASCII strip chart of the four budget buckets."""
    glyphs = {"queued": "q", "blocked": "#", "executing": "=",
              "wasted": "x"}
    bar = ""
    for bucket in BUDGET_BUCKETS:
        cells = int(round(width * fractions.get(bucket, 0.0)))
        bar += glyphs[bucket] * cells
    return f"[{bar[:width]:<{width}}]"


def _fmt_ms(value: float) -> str:
    return f"{value / 1000.0:.2f}s" if value >= 1000 else f"{value:.1f}ms"


def render_explain_markdown(
    payload: typing.Mapping[str, typing.Any], top: int = 10
) -> str:
    """The EXPLAIN report as a markdown document."""
    source = payload.get("source", {})
    budget = payload["budget"]
    fractions = budget.get("fractions", {})
    title_bits = [
        str(source[key])
        for key in ("scheduler", "workload", "rate_tps", "dd")
        if key in source
    ]
    lines = ["# Explain: where the time went", ""]
    if title_bits:
        lines[0] = f"# Explain: {' / '.join(title_bits)}"
    if source:
        described = ", ".join(
            f"{key}={source[key]}" for key in sorted(source)
        )
        lines.append(f"*{described}*")
        lines.append("")

    lines.append("## Time budget")
    lines.append("")
    lines.append(f"`{_budget_bar(fractions)}`")
    lines.append("")
    lines.append("| bucket | txn-seconds | share |")
    lines.append("|---|---|---|")
    for bucket in BUDGET_BUCKETS:
        lines.append(
            f"| {bucket} | {budget.get(f'{bucket}_ms', 0.0) / 1000.0:.2f} "
            f"| {100.0 * fractions.get(bucket, 0.0):.1f}% |"
        )
    lines.append("")
    lines.append(
        f"{budget.get('transactions', 0)} transaction(s): "
        f"{budget.get('committed', 0)} committed, "
        f"{budget.get('restarts', 0)} restart(s), "
        f"{budget.get('in_flight', 0)} still in flight; "
        f"makespan {_fmt_ms(budget.get('makespan_ms', 0.0))}, "
        f"mean response {_fmt_ms(budget.get('mean_response_ms', 0.0))}."
    )
    lines.append("")

    lines.append("## Lock hotspots")
    lines.append("")
    hotspots = payload["hotspots"]
    if hotspots:
        lines.append("| file | blocked | waits | max convoy | top blockers |")
        lines.append("|---|---|---|---|---|")
        for row in hotspots[:top]:
            blockers = ", ".join(
                f"T{b['txn']} ({_fmt_ms(b['ms'])})"
                for b in row.get("top_blockers", [])
            ) or "-"
            lines.append(
                f"| F{row['file']} | {_fmt_ms(row['blocked_ms'])} "
                f"| {row['waits']} | {row['max_convoy']} | {blockers} |"
            )
    else:
        lines.append("(no lock waits observed)")
    lines.append("")

    lines.append("## Critical path (makespan tail)")
    lines.append("")
    path = payload["critical_path"]
    if path:
        shown = path[-top:] if len(path) > top else path
        if len(path) > top:
            lines.append(
                f"({len(path) - top} earlier segment(s) elided)"
            )
            lines.append("")
        for segment in shown:
            where = f" on F{segment['file']}" if "file" in segment else ""
            lines.append(
                f"- T{segment['txn']}"
                f"[{segment['attempt']}] {segment['kind']}{where}: "
                f"{segment['start']:.1f} -> {segment['end']:.1f} ms "
                f"({_fmt_ms(segment['end'] - segment['start'])})"
            )
    else:
        lines.append("(empty trace)")
    lines.append("")

    lines.append("## Anomalies")
    lines.append("")
    anomalies = payload["anomalies"]
    if anomalies:
        for flag in anomalies:
            if flag["kind"] == "starvation":
                lines.append(
                    f"- **starvation** T{flag['txn']}: response "
                    f"{_fmt_ms(flag['response_ms'])} "
                    f"({flag['wait_share']:.0%} waiting; batch median "
                    f"{_fmt_ms(flag['median_response_ms'])})"
                )
            else:
                lines.append(
                    f"- **convoy** F{flag['file']}: queue depth "
                    f"{flag['max_convoy']}, "
                    f"{_fmt_ms(flag['blocked_ms'])} blocked "
                    f"({flag['blocked_share']:.0%} of all blocking)"
                )
    else:
        lines.append("(none flagged)")
    lines.append("")

    lines.append("## Slowest transactions")
    lines.append("")
    rows = [
        row for row in payload["transactions"]
        if row["status"] == "committed"
    ]
    rows.sort(key=lambda r: -r.get("response_ms", 0.0))
    if rows:
        lines.append(
            "| txn | label | attempts | response | queued | blocked "
            "| executing | wasted |"
        )
        lines.append("|---|---|---|---|---|---|---|---|")
        for row in rows[:top]:
            lines.append(
                f"| T{row['txn']} | {row['label']} | {row['attempts']} "
                f"| {_fmt_ms(row.get('response_ms', 0.0))} "
                f"| {_fmt_ms(row['queued_ms'])} "
                f"| {_fmt_ms(row['blocked_ms'])} "
                f"| {_fmt_ms(row['executing_ms'])} "
                f"| {_fmt_ms(row['wasted_ms'])} |"
            )
    else:
        lines.append("(no committed transactions)")
    lines.append("")
    return "\n".join(lines)


def render_txn_markdown(
    attribution: Attribution, txn_id: int
) -> str:
    """The per-transaction deep dive behind ``repro explain --txn``."""
    timeline = attribution.transactions.get(txn_id)
    if timeline is None:
        for candidate in attribution.transactions.values():
            if any(a.txn_id == txn_id for a in candidate.attempts):
                timeline = candidate
                break
    if timeline is None:
        raise KeyError(f"transaction {txn_id} not in trace")
    totals = timeline.totals()
    lines = [
        f"# Transaction T{timeline.root} ({timeline.label})",
        "",
        f"status **{timeline.status}**, {len(timeline.attempts)} "
        f"attempt(s), arrival {timeline.arrival:.1f} ms, "
        f"end {timeline.end:.1f} ms"
        + (
            f", response {_fmt_ms(timeline.response_ms)}"
            if timeline.response_ms is not None
            else ""
        ),
        "",
        f"queued {_fmt_ms(totals['queued'])} | "
        f"blocked {_fmt_ms(totals['blocked'])} | "
        f"executing {_fmt_ms(totals['executing'])} | "
        f"wasted {_fmt_ms(totals['wasted'])}",
        "",
    ]
    for attempt in timeline.attempts:
        ending = (
            f"{attempt.outcome}"
            + (f" ({attempt.reason})" if attempt.reason else "")
        )
        lines.append(
            f"## Attempt {attempt.index} (T{attempt.txn_id}): {ending}"
        )
        lines.append("")
        for span in attempt.spans:
            where = f" on F{span.file}" if span.file is not None else ""
            flavor = f" [{span.flavor}]" if span.flavor else ""
            lines.append(
                f"- {span.kind}{where}{flavor}: {span.start:.1f} -> "
                f"{span.end:.1f} ms ({_fmt_ms(span.duration)})"
            )
        if attempt.steps:
            steps = ", ".join(
                f"step {step} F{file_id} {_fmt_ms(end - start)}"
                for file_id, step, start, end in attempt.steps
            )
            lines.append(f"- scans: {steps}")
        lines.append("")
    return "\n".join(lines)


def time_budget_of_trace(
    path: PathLike,
) -> typing.Dict[str, typing.Any]:
    """Fold one trace artifact down to just its batch time budget
    (the arena's why-columns use this)."""
    return fold_trace_path(path).budget()


#: one folded trace: budget, hotspots, critical path, per-txn rows
EXPLAIN = Family("explain", 1, validate_explain)
