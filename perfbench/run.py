"""The repository benchmark: pinned workloads timed end to end.

    python3 perfbench/run.py --workload fig9-bisect --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it prints every
end-to-end metric of BENCHMARK.json for the workload; with ``--trace 1``
every per-layer metric, from a separate traced run.  Each line names a
metric, its value and its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every measurement happens in a fresh interpreter (``worker.py``), so
``setup_s`` and ``peak_rss_mb`` belong to the workload alone.  This
process only spawns, waits and aggregates; it never imports the
package.  See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"
#: scratch space for caches and manifests, removed when the run ends
SCRATCH = ROOT / ".perfbench"

#: setup-only interpreters started before the timed passes
SETUP_PROBES = 5
#: distance between the seeds of consecutive timed passes of one run
PASS_SEED_STRIDE = 100_000
#: every child must have ended this long after the run started
RUN_LIMIT_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pass_seed(seed: int, index: int) -> int:
    """The simulation seed of a run's ``index``-th timed pass.

    Pass 0 uses the run's seed itself; later passes use further seeds
    derived from it, so a run's figure spans several inputs and depends
    less on one seed's luck than a figure of identical passes would.
    """
    return seed + PASS_SEED_STRIDE * index


class Children:
    """Spawns worker interpreters one at a time, each in its own session."""

    def __init__(self, workload: str, scratch: pathlib.Path):
        self.workload = workload
        self.scratch = scratch
        self.started = time.monotonic()
        self.spawned = 0

    def run(self, mode: str, seed: int) -> dict:
        self.spawned += 1
        workdir = self.scratch / f"{mode}-{self.spawned}"
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchmarkError("out of time before starting a worker")
        spawned_at = time.monotonic()
        command = [
            sys.executable, str(WORKER), mode, self.workload,
            str(seed), str(workdir), repr(spawned_at),
        ]
        process = subprocess.Popen(
            command, cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            stdout, _ = process.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise BenchmarkError(f"{mode} worker ran out of time") from None
        finally:
            if process.poll() is None:  # interrupted: take the session down
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
        if process.returncode != 0:
            raise BenchmarkError(
                f"{mode} worker exited with code {process.returncode}"
            )
        lines = stdout.strip().splitlines()
        if not lines:
            raise BenchmarkError(f"{mode} worker printed no result")
        return json.loads(lines[-1])


def trimmed_mean(values: list) -> float:
    """Mean of ``values`` without their lowest and highest fifth.

    Passes on different seeds differ in real work (a bisection's path
    decides which rates it probes), so a mean averages that out faster
    than a median does; dropping the extreme fifths keeps a pass that a
    burst on the host slowed from moving it.
    """
    ordered = sorted(values)
    cut = len(ordered) // 5
    return statistics.mean(ordered[cut:len(ordered) - cut])


def timed_run(children: Children, seed: int, seconds: float) -> dict:
    """Setup probes, then one cold pass per fresh interpreter until the
    time is up (at least one).

    Every timing is divided by the host slowness its interpreter
    gauged while it ran (``calibrate.py``), so it reads as time at
    nominal host speed.
    """
    setups = [children.run("setup", seed) for _ in range(SETUP_PROBES)]
    deadline = time.monotonic() + seconds
    passes: list = []
    child_s = 0.0
    while not passes or time.monotonic() + child_s <= deadline:
        started = time.monotonic()
        passes.append(children.run("measure", pass_seed(seed, len(passes))))
        child_s = time.monotonic() - started
    setups += passes
    cold_s = [r["cold_s"] / r["cold_slowness"] for r in passes]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "metrics": {
            "wall_s": trimmed_mean(cold_s),
            "wall_ms_per_commit": trimmed_mean([
                s * 1e3 / max(1, r["commits"]) for s, r in zip(cold_s, passes)
            ]),
            "setup_s": statistics.median(
                r["setup_s"] / r["setup_slowness"] for r in setups
            ),
            "peak_rss_mb": peak_kb / 1024.0,
        },
        "attempted": sum(r["attempted"] for r in passes),
        "failed": sum(r["failed"] for r in passes),
        "digest": passes[0]["digest"],
        "problems": sorted({p for r in passes for p in r["problems"]}),
        "passes": [r["cold_s"] for r in passes],
        "slowness": [r["cold_slowness"] for r in passes],
    }


def model_notes(workload: str, seed: int, digest: str) -> list:
    """A digest differing from the recorded one means the model changed;
    that is reported, not counted as a failure."""
    recorded = json.loads(DIGESTS.read_text()).get(workload, {})
    expected = recorded.get(str(seed))
    if expected is None:
        return [f"no recorded model digest for seed {seed}"]
    if expected != digest:
        return [
            f"model changed: results digest {digest[:16]} differs from "
            f"the recorded {expected[:16]} (not counted as a failure)"
        ]
    return ["model outputs match the recorded digest"]


def main(argv: list) -> int:
    # a terminated run still stops its worker and removes its scratch
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    contract = json.loads(SPEC.read_text())
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    scratch = SCRATCH / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    children = Children(args.workload, scratch)
    try:
        if args.trace:
            report = children.run("trace", args.seed)
        else:
            report = timed_run(children, args.seed, args.seconds)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is still using it

    notes = model_notes(args.workload, args.seed, report["digest"])
    problems = report["problems"]
    missing = [m["name"] for m in wanted if m["name"] not in report["metrics"]]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]}
        for m in wanted
    }
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:<30} {metric['value']:.6g} {metric['unit']}")
    attempted, failed = report["attempted"], report["failed"]
    print(f"  {'failed_frac':<30} {failed / max(1, attempted):.6g} "
          f"({failed}/{attempted} specs)")
    if "passes" in report:
        walls = " ".join(f"{s:.3f}" for s in report["passes"])
        slowness = " ".join(f"{s:.3f}" for s in report["slowness"])
        print(f"  cold passes (s, as timed): {walls}")
        print(f"  host slowness during them: {slowness}")
    print(f"  digest {report['digest']}")
    for line in notes + [f"PROBLEM: {p}" for p in problems]:
        print(f"  {line}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
