#!/usr/bin/env python3
"""Regenerate every table and figure of the paper's evaluation.

Runs Experiments 1-3 end to end and writes one text table per
table/figure (plus CSVs) into ``results/<scale>/``.

Usage::

    python examples/reproduce_paper.py [--scale smoke|quick|paper]
                                       [--only fig8,table2,...]
                                       [--seed N] [--pool N] [--no-cache]

``--scale paper`` matches the paper's 2,000,000-clock horizon per point
(slow: hours).  ``quick`` preserves every qualitative shape in minutes.

Runs execute through :class:`repro.runner.ParallelRunner`: ``--pool``
sets the worker-process count (default: CPU count), completed runs are
cached under ``<out>/cache/`` so re-invocations (and the overlapping
points of fig10/table3, fig13/table5) are served from disk, and each
batch writes a JSON manifest under ``<out>/runs/``.
"""

import argparse
import pathlib
import sys
import time

from repro.analysis import render_table, to_csv
from repro.experiments import PAPER, QUICK, SMOKE, figures
from repro.runner import ParallelRunner, ResultCache

SCALES = {"smoke": SMOKE, "quick": QUICK, "paper": PAPER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="quick")
    parser.add_argument(
        "--only",
        default="",
        help="comma-separated experiment ids (default: all)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results")
    parser.add_argument(
        "--pool",
        type=int,
        default=None,
        help="worker processes for independent runs (default: CPU count)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="always re-simulate; do not read or write the result cache",
    )
    args = parser.parse_args()

    scale = SCALES[args.scale]
    declared = {figure.id: figure for figure in figures()}
    wanted = [w for w in args.only.split(",") if w] or list(declared)
    unknown = set(wanted) - set(declared)
    if unknown:
        parser.error(f"unknown experiment ids: {sorted(unknown)}")

    out_dir = pathlib.Path(args.out) / args.scale
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = (
        None if args.no_cache
        else ResultCache(pathlib.Path(args.out) / "cache")
    )
    runner = ParallelRunner(
        pool_size=args.pool,
        cache=cache,
        runs_dir=pathlib.Path(args.out) / "runs",
    )

    for experiment_id in wanted:
        started = time.time()
        print(f"=== {experiment_id} (scale={args.scale}) ...", flush=True)
        output = declared[experiment_id](
            scale, seed=args.seed, runner=runner
        )
        table = render_table(output.headers, output.rows, title=output.title)
        print(table)
        if output.paper_reference:
            print(f"[paper] {output.paper_reference}")
        print(f"[{time.time() - started:.1f}s]\n", flush=True)
        (out_dir / f"{experiment_id}.txt").write_text(
            table + "\n\n[paper] " + output.paper_reference + "\n"
        )
        (out_dir / f"{experiment_id}.csv").write_text(
            to_csv(output.headers, output.rows)
        )
    print(
        f"[runner] pool={runner.pool_size} cache hits={runner.cache_hits} "
        f"misses={runner.cache_misses} over {runner.runs_completed} runs"
    )
    print(f"Wrote results to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
