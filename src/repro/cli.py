"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``sweep``       -- a scheduler x rate grid through the parallel runner
  (worker pool + result cache + run manifest; ``--pool 1`` runs every
  cell in-process, the reference path; ``--trace`` captures a per-run
  trace artifact, ``--timeseries`` a sampled-series artifact).  A batch
  of one cell (one scheduler, one rate) prints that cell's metric
  table, with a row per artifact it wrote, instead of a 1 x 1 grid.
- ``report``      -- terminal view of an artifact a cell leaves: the
  summary of a trace (top blockers, lock-wait histogram, restart
  chains) or the sparklines of a series; ``--export`` writes a trace
  as Chrome/Perfetto JSON and a series as long-format CSV.
- ``watch``       -- live console view of a telemetry-enabled batch
  (``--once`` renders a single frame, for CI).
- ``runs``        -- list the batches in the persistent run registry.
- ``arena``       -- the pinned scheduler x rate x DD head-to-head
  matrix through the cached runner -> ``results/arena/ARENA.{json,md}``.
- ``explain``     -- causal time attribution of a traced run (or every
  traced run of a registry batch): span timelines, batch time budget,
  lock hotspots, the makespan critical path and anomaly flags ->
  ``EXPLAIN.{json,md}``.
- ``cache``       -- result-cache stats, with optional age/count
  pruning (``--max-age-days`` / ``--max-entries`` / ``--dry-run``).
- ``schedulers``  -- list the registered schedulers with family tags
  (paper / extension / modern) and descriptions.
- ``experiments`` -- list the paper's tables/figures and how to run them.

Each verb imports the modules it needs inside its handler, so a command
loads only its own machinery.  Option defaults owned by such a module
(the arena horizon) parse as ``None`` and are filled in from that
module by the handler.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
import time
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.runner.spec import RunSpec
    from repro.sim.metrics import SimulationResult


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Batch-transaction scheduling on a shared-nothing database "
            "machine (Ohmori/Kitsuregawa/Tanaka, ICDE 1991)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    swp = sub.add_parser(
        "sweep",
        help="scheduler x rate grid via the parallel runner (cached)",
    )
    swp.add_argument(
        "schedulers",
        help="comma-separated scheduler names, e.g. LOW,GOW,C2PL",
    )
    swp.add_argument("--rates", default="0.4,0.8,1.2",
                     help="comma-separated arrival rates in TPS")
    swp.add_argument("--workload", choices=("exp1", "exp2", "exp3"),
                     default="exp1")
    swp.add_argument("--dd", type=int, default=1)
    swp.add_argument("--num-files", type=int, default=16)
    swp.add_argument("--num-nodes", type=int, default=8)
    swp.add_argument("--mpl", type=int, default=None)
    swp.add_argument("--sigma", type=float, default=1.0)
    swp.add_argument("--duration", type=float, default=400_000)
    swp.add_argument("--warmup", type=float, default=50_000)
    swp.add_argument("--seed", type=int, default=0)
    swp.add_argument("--pool", type=int, default=None,
                     help="worker processes (default: CPU count)")
    swp.add_argument("--cache-dir", default="results/cache",
                     help="result cache root ('' disables caching)")
    swp.add_argument("--runs-dir", default="results/runs",
                     help="run-manifest directory ('' disables manifests)")
    swp.add_argument("--metric", choices=("rt", "tps"), default="rt",
                     help="grid cells show mean response (s) or "
                          "throughput (TPS); one cell shows both")
    swp.add_argument("--trace", action="store_true",
                     help="capture a JSONL trace artifact per run")
    swp.add_argument("--traces-dir", default="results/traces",
                     help="trace artifact directory (default results/traces)")
    swp.add_argument("--timeseries", action="store_true",
                     help="capture a sampled time-series artifact per run")
    swp.add_argument("--series-dir", default="results/series",
                     help="series artifact directory (default results/series)")
    swp.add_argument("--telemetry", action="store_true",
                     help="emit live telemetry (telemetry.jsonl + "
                          "status.json under --runs-dir; view with "
                          "'repro watch')")
    swp.add_argument("--stall-timeout", type=float, default=None,
                     help="seconds without a worker heartbeat before the "
                          "cell counts as stalled and is killed/retried "
                          "(needs --telemetry; default: no stall detection)")

    rpt = sub.add_parser(
        "report",
        help="terminal view of a trace or time-series artifact",
    )
    rpt.add_argument("artifact",
                     help="a *.trace.jsonl or *.series.json artifact")
    rpt.add_argument("--width", type=int, default=48,
                     help="sparkline width in cells (default 48)")
    rpt.add_argument("--explain", default="",
                     help="also fold this trace JSONL artifact and lead "
                          "with its time-budget headline ('' disables)")
    rpt.add_argument("--export", default="",
                     help="also write a trace as Chrome/Perfetto JSON, a "
                          "series as long-format CSV ('' disables)")

    wch = sub.add_parser(
        "watch",
        help="live console view of a telemetry-enabled batch",
    )
    wch.add_argument("batch", nargs="?", default="latest",
                     help="batch id, unique prefix, or 'latest' (default)")
    wch.add_argument("--runs-dir", default="results/runs",
                     help="registry directory (default results/runs)")
    wch.add_argument("--interval", type=float, default=1.0,
                     help="refresh interval in seconds (default 1.0)")
    wch.add_argument("--once", action="store_true",
                     help="render a single frame and exit (for CI)")

    rns = sub.add_parser(
        "runs", help="list the persistent run registry, one line per batch",
    )
    rns.add_argument("--runs-dir", default="results/runs",
                     help="registry directory (default results/runs)")

    arn = sub.add_parser(
        "arena",
        help="head-to-head scheduler matrix -> markdown + JSON report",
    )
    arn.add_argument("--schedulers", default="",
                     help="comma-separated names; default: every "
                          "grid-eligible paper + modern scheduler")
    arn.add_argument("--rates", default="0.8,1.2",
                     help="comma-separated arrival rates in TPS "
                          "(default 0.8,1.2)")
    arn.add_argument("--dds", default="1,4",
                     help="comma-separated declustering degrees "
                          "(default 1,4)")
    arn.add_argument("--workload", choices=("exp1", "exp2", "exp3"),
                     default="exp1")
    arn.add_argument("--num-files", type=int, default=16)
    arn.add_argument("--sigma", type=float, default=1.0,
                     help="declaration-error sigma for exp3 (default 1.0)")
    arn.add_argument("--duration", type=float, default=None,
                     help="simulated ms per cell "
                          "(default: repro.analysis.arena."
                          "DEFAULT_DURATION_MS)")
    arn.add_argument("--warmup", type=float, default=None,
                     help="warm-up ms discarded "
                          "(default: repro.analysis.arena."
                          "DEFAULT_WARMUP_MS)")
    arn.add_argument("--seed", type=int, default=0)
    arn.add_argument("--pool", type=int, default=None,
                     help="worker processes (default: CPU count)")
    arn.add_argument("--cache-dir", default="results/cache",
                     help="result cache root ('' disables caching)")
    arn.add_argument("--out", default="results/arena",
                     help="report directory (default results/arena)")
    arn.add_argument("--no-explain", action="store_true",
                     help="skip the traced explain pass (the per-cell "
                          "queued/blocked/executing/wasted why columns)")
    arn.add_argument("--traces-dir", default="results/traces",
                     help="explain-pass trace artifacts "
                          "(default results/traces)")

    exp = sub.add_parser(
        "explain",
        help="causal time attribution of a traced run -> "
             "EXPLAIN.json + markdown",
    )
    exp.add_argument("target",
                     help="a trace JSONL artifact, or a batch "
                          "id/prefix/'latest' from the run registry "
                          "(every traced run of the batch is explained)")
    exp.add_argument("--txn", type=int, default=None,
                     help="deep-dive one transaction (by original or "
                          "restart id) instead of the batch report")
    exp.add_argument("--json", action="store_true",
                     help="print the EXPLAIN payload as JSON instead of "
                          "markdown")
    exp.add_argument("--md", action="store_true",
                     help="print the markdown report (the default; "
                          "mutually exclusive with --json)")
    exp.add_argument("--out", default="results/explain",
                     help="artifact directory ('' disables writing; "
                          "default results/explain)")
    exp.add_argument("--runs-dir", default="results/runs",
                     help="registry directory for batch targets "
                          "(default results/runs)")
    exp.add_argument("--top", type=int, default=10,
                     help="rows per report section (default 10)")

    cch = sub.add_parser(
        "cache",
        help="result-cache stats and (optional) pruning",
    )
    cch.add_argument("--cache-dir", default="results/cache",
                     help="result cache root (default results/cache)")
    cch.add_argument("--max-age-days", type=float, default=None,
                     help="prune entries older than this many days")
    cch.add_argument("--max-entries", type=int, default=None,
                     help="prune oldest entries beyond this count")
    cch.add_argument("--dry-run", action="store_true",
                     help="report what pruning would remove, delete "
                          "nothing")

    sub.add_parser(
        "schedulers",
        help="list registered schedulers with families and descriptions",
    )
    sub.add_parser("experiments", help="list the paper's tables/figures")
    return parser


def _check_horizon(args: argparse.Namespace) -> None:
    if not 0 <= args.warmup < args.duration:
        raise SystemExit(
            f"--warmup ({args.warmup:g}) must lie inside --duration "
            f"({args.duration:g}); pass --warmup 0 for no warm-up"
        )


def _check_schedulers(names: typing.Sequence[str]) -> None:
    """Exit unless the registry resolves every name, a parameterised
    form such as ``DGCC(B=16)`` included."""
    from repro.core.registry import available, resolve

    for name in names:
        try:
            resolve(name)
        except (KeyError, ValueError):
            raise SystemExit(
                f"unknown scheduler {name!r}; available: {available()}"
            )


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.analysis import render_table
    from repro.machine.config import MachineConfig
    from repro.runner import ParallelRunner, ResultCache, RunSpec
    from repro.runner.spec import paper_workload

    schedulers = [s for s in args.schedulers.split(",") if s]
    rates = [float(r) for r in args.rates.split(",") if r]
    if not schedulers or not rates:
        raise SystemExit("sweep needs at least one scheduler and one rate")
    _check_horizon(args)
    _check_schedulers(schedulers)
    if args.pool is not None and args.pool < 1:
        raise SystemExit(f"--pool must be >= 1, got {args.pool}")
    config = MachineConfig(
        num_nodes=args.num_nodes,
        num_files=args.num_files,
        dd=args.dd,
        mpl=args.mpl,
    )
    if args.telemetry and not args.runs_dir:
        raise SystemExit(
            "--telemetry needs --runs-dir (the telemetry artifacts live "
            "there)"
        )
    if args.stall_timeout is not None and not args.telemetry:
        raise SystemExit(
            "--stall-timeout needs --telemetry (stalls are detected from "
            "the telemetry heartbeats)"
        )
    if args.stall_timeout is not None and args.stall_timeout <= 0:
        raise SystemExit(
            f"--stall-timeout must be > 0, got {args.stall_timeout:g}"
        )
    runner = ParallelRunner(
        pool_size=args.pool,
        cache=ResultCache(args.cache_dir) if args.cache_dir else None,
        runs_dir=args.runs_dir or None,
        traces_dir=args.traces_dir or None,
        series_dir=args.series_dir or None,
        telemetry=args.telemetry,
        stall_timeout_s=args.stall_timeout,
    )
    specs = [
        RunSpec(
            scheduler=scheduler,
            workload=paper_workload(
                args.workload, rate, args.num_files, args.sigma
            ),
            config=config,
            seed=args.seed,
            duration_ms=args.duration,
            warmup_ms=args.warmup,
            trace=args.trace,
            timeseries=args.timeseries,
        )
        for rate in rates
        for scheduler in schedulers
    ]
    results = runner.run_batch(specs, label="cli-sweep")
    batch = runner.last_batch or {}
    runs = batch.get("runs", [])
    if len(specs) == 1:
        if results[0] is not None:
            print(_cell_table(args, results[0], runs[0]))
    else:
        cells = iter(results)
        rows: typing.List[typing.List[object]] = []
        for rate in rates:
            row: typing.List[object] = [rate]
            for _scheduler in schedulers:
                result = next(cells)
                if result is None:  # the cell failed (stall / worker death)
                    row.append("-")
                else:
                    row.append(
                        result.mean_response_s
                        if args.metric == "rt"
                        else result.throughput_tps
                    )
            rows.append(row)
        metric_name = (
            "mean response (s)" if args.metric == "rt"
            else "throughput (TPS)"
        )
        print(render_table(
            ["lambda_tps"] + schedulers,
            rows,
            title=(
                f"{metric_name} -- {args.workload}, DD={args.dd}, "
                f"NumFiles={args.num_files}"
            ),
        ))
    counts = batch.get("counts", {})
    line = (
        f"[runner] pool={runner.pool_size} "
        f"cache hits={counts.get('cache_hits', 0)} "
        f"misses={counts.get('cache_misses', 0)} "
        f"simulated={counts.get('simulated', 0)} "
        f"coalesced={counts.get('coalesced', 0)}"
    )
    if runner.last_manifest_path is not None:
        line += f" manifest={runner.last_manifest_path}"
    print(line)
    for family, asked, directory in (
        ("trace", args.trace, args.traces_dir),
        ("series", args.timeseries, args.series_dir),
    ):
        if asked:
            written = [run for run in runs if run.get(f"{family}_artifact")]
            print(f"[runner] {family} artifacts: {len(written)} file(s) "
                  f"under {directory or '(disabled)'}; view one with "
                  "'python -m repro report <file>'")
    if args.telemetry and runner.last_batch_id is not None:
        print(f"[runner] telemetry: batch {runner.last_batch_id}; view "
              f"with 'python -m repro watch {runner.last_batch_id} "
              f"--runs-dir {args.runs_dir}'")
    if runner.last_failures:
        for index, message in sorted(runner.last_failures.items()):
            print(f"[runner] FAILED cell {index} "
                  f"({specs[index].describe()}): {message}",
                  file=sys.stderr)
        return 1
    return 0


def _cell_table(
    args: argparse.Namespace,
    result: SimulationResult,
    run: typing.Mapping[str, typing.Any],
) -> str:
    """The metric table of a one-cell sweep: the cell's result, then a
    row per artifact it wrote (``run`` is its manifest entry)."""
    from repro.analysis import render_table

    rows: typing.List[typing.List[object]] = [
        ["scheduler", result.scheduler],
        ["workload", args.workload],
        ["arrival rate (TPS)", result.arrival_rate_tps],
        ["DD", args.dd],
        ["committed", result.completed],
        ["throughput (TPS)", result.throughput_tps],
        ["mean response (s)", result.mean_response_s],
        ["p95 response (s)", result.p95_response_ms / 1000.0],
        ["p95 exact", result.p95_exact],
        ["DPN utilisation", result.dpn_utilisation],
        ["CN utilisation", result.cn_utilisation],
        ["blocks", result.blocks],
        ["delays", result.delays],
        ["restarts", result.restarts],
    ]
    for family in ("trace", "series"):
        if run.get(f"{family}_artifact"):
            rows.append([f"{family} artifact", run[f"{family}_artifact"]])
    return render_table(["metric", "value"], rows, title="simulation result")


def _is_stream(path: str) -> bool:
    """Whether a file opens with a stream header record (a TRACE
    artifact) rather than being one JSON document (a SERIES artifact)."""
    with open(path, encoding="utf-8") as handle:
        line = handle.readline()
    try:
        head = json.loads(line)
    except ValueError:
        return False
    return isinstance(head, dict) and "kind" in head


def _command_report(args: argparse.Namespace) -> int:
    """Render a trace or series artifact; the file's envelope says which
    (a trace stream is checked as TRACE, anything else as SERIES)."""
    try:
        if _is_stream(args.artifact):
            from repro.obs.export import (
                read_trace,
                render_summary,
                write_chrome_trace,
            )

            meta, events = read_trace(args.artifact)
            dropped = meta.get("events_dropped", 0)
            text = render_summary(events, dropped=dropped)

            def export(path: str) -> str:
                written = write_chrome_trace(
                    events, path, meta=meta, dropped=dropped
                )
                return (f"chrome trace -> {written} (open in "
                        "ui.perfetto.dev or chrome://tracing)")
        else:
            from repro import artifact
            from repro.obs.timeseries import (
                SERIES,
                render_series_report,
                write_series_csv,
            )

            payload = artifact.load(args.artifact, SERIES)["payload"]
            text = render_series_report(payload, width=args.width)

            def export(path: str) -> str:
                return f"long-format CSV -> {write_series_csv(payload, path)}"
    except (OSError, ValueError) as exc:
        print(f"[report] ERROR: {exc}", file=sys.stderr)
        return 1
    if args.explain:
        from repro.analysis import explain as explain_mod

        try:
            budget = explain_mod.time_budget_of_trace(args.explain)
        except (OSError, ValueError) as exc:
            print(f"[report] ERROR: bad --explain trace: {exc}",
                  file=sys.stderr)
            return 1
        print(explain_mod.render_budget_line(budget))
        print()
    print(text)
    if args.export:
        print(f"[report] {export(args.export)}")
    return 0


def _explain_targets(args: argparse.Namespace) -> typing.List[str]:
    """Resolve the explain target to one or more trace artifacts."""
    from repro import artifact
    from repro.runner.registry import RunRegistry
    from repro.runner.runner import MANIFEST

    if pathlib.Path(args.target).is_file():
        return [args.target]
    entry = RunRegistry(args.runs_dir).find(args.target)
    manifest_path = entry.get("manifest")
    if not manifest_path:
        raise LookupError(
            f"batch {entry['batch']} has no manifest on record"
        )
    manifest = artifact.load(manifest_path, MANIFEST)["payload"]
    traces = [
        run.get("trace_artifact")
        for run in manifest.get("runs", [])
        if run.get("trace_artifact")
    ]
    if not traces:
        raise LookupError(
            f"batch {entry['batch']} recorded no trace artifacts; "
            "re-run the sweep with --trace"
        )
    return traces


def _command_explain(args: argparse.Namespace) -> int:
    from repro import artifact
    from repro.analysis import explain as explain_mod
    from repro.obs.attrib import fold_trace_path

    if args.json and args.md:
        raise SystemExit("--json and --md are mutually exclusive")
    try:
        targets = _explain_targets(args)
    except (LookupError, OSError, ValueError) as exc:
        print(f"[explain] ERROR: {exc}", file=sys.stderr)
        return 1
    if args.txn is not None and len(targets) > 1:
        raise SystemExit(
            "--txn needs a single trace target, "
            f"got a batch with {len(targets)} traces"
        )
    multi = len(targets) > 1
    for target in targets:
        try:
            attribution = fold_trace_path(target)
        except (OSError, ValueError) as exc:
            print(f"[explain] ERROR: {target}: {exc}", file=sys.stderr)
            return 1
        if args.txn is not None:
            try:
                print(explain_mod.render_txn_markdown(
                    attribution, args.txn
                ))
            except KeyError as exc:
                print(f"[explain] ERROR: {exc.args[0]}", file=sys.stderr)
                return 1
            continue
        payload = explain_mod.explain_attribution(
            attribution, source={"trace": str(target)}
        )
        try:
            explain_mod.validate_explain(payload)
        except ValueError as exc:
            print(f"[explain] ERROR: invalid payload: {exc}",
                  file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(payload, indent=1, sort_keys=True))
        elif multi:
            print(f"{pathlib.Path(target).name}: "
                  + explain_mod.render_budget_line(payload["budget"]))
        else:
            print(explain_mod.render_explain_markdown(
                payload, top=args.top
            ))
        if args.out:
            out_dir = pathlib.Path(args.out)
            if multi:
                stem = pathlib.Path(target).name
                for suffix in (".trace.jsonl", ".jsonl"):
                    if stem.endswith(suffix):
                        stem = stem[: -len(suffix)]
                        break
                out_dir = out_dir / stem
            json_path = out_dir / "EXPLAIN.json"
            md_path = out_dir / "EXPLAIN.md"
            artifact.write(json_path, explain_mod.EXPLAIN, payload)
            artifact.atomic_write(
                md_path, explain_mod.render_explain_markdown(payload)
            )
            print(f"[explain] {json_path} + {md_path} (schema valid)")
    return 0


def _command_watch(args: argparse.Namespace) -> int:
    from repro import artifact
    from repro.obs.telemetry import STATUS, render_status
    from repro.runner.registry import RunRegistry

    if args.interval <= 0:
        raise SystemExit(f"--interval must be > 0, got {args.interval:g}")
    try:
        entry = RunRegistry(args.runs_dir).find(args.batch)
    except LookupError as exc:
        print(f"[watch] ERROR: {exc}", file=sys.stderr)
        return 1
    status_path = entry.get("status_file")
    if not status_path:
        print(f"[watch] ERROR: batch {entry['batch']} ran without "
              "telemetry (re-run the sweep with --telemetry)",
              file=sys.stderr)
        return 1
    while True:
        try:
            status = artifact.load(status_path, STATUS)["payload"]
        except (OSError, ValueError) as exc:
            print(f"[watch] ERROR: {exc}", file=sys.stderr)
            return 1
        frame = render_status(status)
        if args.once:
            print(frame)
            return 0
        # clear screen + home, then the fresh frame
        print(f"\x1b[2J\x1b[H{frame}", flush=True)
        if status.get("status") != "running":
            return 0
        time.sleep(args.interval)


def _command_runs(args: argparse.Namespace) -> int:
    from repro.analysis import render_table
    from repro.runner.registry import RunRegistry

    runs_dir = args.runs_dir
    entries = RunRegistry(runs_dir).entries()
    if not entries:
        print(f"[runs] no batches registered under {runs_dir}")
        return 0
    print(render_table(
        ["batch", "kind", "status", "runs", "failed", "wall_s", "label"],
        [
            [
                e.get("batch", "?"),
                e.get("kind", "?"),
                e.get("status", "?"),
                e.get("total", "?"),
                e.get("failed", 0),
                e.get("wall_s") if e.get("wall_s") is not None else "-",
                e.get("label", ""),
            ]
            for e in entries
        ],
        title=f"run registry ({runs_dir})",
    ))
    return 0


def _arena_time_budgets(
    args: argparse.Namespace, specs: typing.Sequence[RunSpec]
) -> typing.List[typing.Optional[typing.Dict[str, typing.Any]]]:
    """The arena's explain pass: traced re-runs of the matrix, folded
    into per-cell time budgets (None for a cell whose trace failed).

    The traced pass goes through the same cached runner, so repeats
    are free; the runner simulates again a cached cell whose trace
    artifact is missing, so every cell that ran has its trace.
    """
    from repro.obs.attrib import fold_trace_path
    from repro.runner import ParallelRunner, ResultCache
    from repro.runner.worker import trace_artifact_path

    traced = [dataclasses.replace(spec, trace=True) for spec in specs]
    runner = ParallelRunner(
        pool_size=args.pool,
        cache=ResultCache(args.cache_dir) if args.cache_dir else None,
        traces_dir=args.traces_dir,
    )
    runner.run_batch(traced, label="arena-explain")
    budgets: typing.List[typing.Optional[typing.Dict[str, typing.Any]]] = []
    for tspec in traced:
        path = trace_artifact_path(args.traces_dir, tspec)
        try:
            budgets.append(fold_trace_path(path).budget())
        except (OSError, ValueError) as exc:
            print(f"[arena] WARNING: explain pass failed for "
                  f"{tspec.scheduler} @ {tspec.workload.rate_tps:g} TPS "
                  f"DD={tspec.config.dd}: {exc}", file=sys.stderr)
            budgets.append(None)
    return budgets


def _command_arena(args: argparse.Namespace) -> int:
    from repro import artifact
    from repro.analysis import arena as arena_mod
    from repro.runner import ParallelRunner, ResultCache

    if args.duration is None:
        args.duration = arena_mod.DEFAULT_DURATION_MS
    if args.warmup is None:
        args.warmup = arena_mod.DEFAULT_WARMUP_MS
    _check_horizon(args)
    schedulers = (
        [s for s in args.schedulers.split(",") if s]
        if args.schedulers
        else list(arena_mod.default_arena_schedulers())
    )
    rates = [float(r) for r in args.rates.split(",") if r]
    dds = [int(d) for d in args.dds.split(",") if d]
    if not schedulers or not rates or not dds:
        raise SystemExit(
            "arena needs at least one scheduler, one rate and one DD"
        )
    _check_schedulers(schedulers)
    if args.pool is not None and args.pool < 1:
        raise SystemExit(f"--pool must be >= 1, got {args.pool}")
    specs = arena_mod.arena_specs(
        schedulers,
        rates,
        dds,
        workload=args.workload,
        num_files=args.num_files,
        sigma=args.sigma,
        seed=args.seed,
        duration_ms=args.duration,
        warmup_ms=args.warmup,
    )
    runner = ParallelRunner(
        pool_size=args.pool,
        cache=ResultCache(args.cache_dir) if args.cache_dir else None,
    )
    results = runner.run_batch(specs, label="arena")
    time_budgets = None
    if not args.no_explain:
        time_budgets = _arena_time_budgets(args, specs)
    payload = arena_mod.arena_payload(
        specs, results, time_budgets=time_budgets
    )
    json_path = pathlib.Path(args.out) / "ARENA.json"
    md_path = json_path.with_suffix(".md")
    try:
        document = artifact.write(json_path, arena_mod.ARENA, payload)
    except ValueError as exc:
        print(f"[arena] ERROR: invalid artifact: {exc}", file=sys.stderr)
        return 1
    markdown = arena_mod.render_arena_markdown(
        payload, created=document["created"], git_sha=document["git_sha"]
    )
    artifact.atomic_write(md_path, markdown)
    print(markdown)
    print(f"[arena] {len(payload['cells'])} cell(s) -> {json_path} + "
          f"{md_path} (schema valid)")
    if payload["failed_cells"]:
        print(f"[arena] ERROR: {payload['failed_cells']} cell(s) failed",
              file=sys.stderr)
        return 1
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    from repro.analysis import render_table
    from repro.runner.cache import ResultCache

    if not args.cache_dir:
        raise SystemExit("cache needs a --cache-dir")
    if args.max_age_days is not None and args.max_age_days < 0:
        raise SystemExit(
            f"--max-age-days must be >= 0, got {args.max_age_days:g}"
        )
    if args.max_entries is not None and args.max_entries < 0:
        raise SystemExit(
            f"--max-entries must be >= 0, got {args.max_entries}"
        )
    cache = ResultCache(args.cache_dir)
    pruning = args.max_age_days is not None or args.max_entries is not None
    if pruning:
        report = cache.gc(
            max_age_s=(
                args.max_age_days * 86_400.0
                if args.max_age_days is not None
                else None
            ),
            max_entries=args.max_entries,
            dry_run=args.dry_run,
        )
        verb = "would prune" if args.dry_run else "pruned"
        print(f"[cache] {verb} {report['pruned']} of "
              f"{report['examined']} entr(ies), keeping {report['kept']}")
    elif args.dry_run:
        raise SystemExit(
            "--dry-run needs --max-age-days and/or --max-entries"
        )
    stats = cache.stats()
    print(render_table(
        ["metric", "value"],
        [
            ["root", stats["root"]],
            ["entries", stats["entries"]],
            ["total bytes", stats["total_bytes"]],
            [
                "oldest age (s)",
                stats["oldest_age_s"]
                if stats["oldest_age_s"] is not None
                else "-",
            ],
            [
                "newest age (s)",
                stats["newest_age_s"]
                if stats["newest_age_s"] is not None
                else "-",
            ],
        ],
        title="result cache",
    ))
    return 0


def _command_schedulers(_args: argparse.Namespace) -> int:
    from repro.analysis import render_table
    from repro.core.registry import entries

    rows = [
        [
            entry.name,
            entry.family,
            "yes" if entry.grid else "no",
            entry.description,
        ]
        for entry in entries()
    ]
    print(render_table(
        ["name", "family", "in grids", "description"],
        typing.cast(typing.List[typing.List[object]], rows),
        title="registered schedulers (parameterised forms: LOW(K=n), "
              "DGCC(B=n), CAR(Q=n), PRED(T=x))",
    ))
    return 0


def _command_experiments(_args: argparse.Namespace) -> int:
    from repro.analysis import render_table
    from repro.experiments.common import figures

    print(render_table(
        ["id", "regenerates (at the default parameters)", "schedulers"],
        [
            [
                figure.id,
                figure.title.format(**figure.defaults),
                ", ".join(figure.default_schedulers()),
            ]
            for figure in figures()
        ],
        title="paper tables/figures (run: python examples/reproduce_paper.py"
              " --only <id>)",
    ))
    return 0


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "sweep": _command_sweep, "report": _command_report,
        "watch": _command_watch, "runs": _command_runs,
        "arena": _command_arena, "explain": _command_explain,
        "cache": _command_cache, "schedulers": _command_schedulers,
        "experiments": _command_experiments,
    }
    try:
        return commands[args.command](args)
    except BrokenPipeError:  # output piped into head etc.
        return 0
    except KeyboardInterrupt:  # a sweep's runner has written its artifacts
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
