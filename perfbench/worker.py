"""One workload in a fresh interpreter, started by ``run.py``.

    python3 perfbench/worker.py MODE WORKLOAD SEED WORKDIR SPAWNED_AT

``SPAWNED_AT`` is the parent's ``time.monotonic()`` just before it
spawned this interpreter, so ``setup_s`` covers interpreter start,
imports and runner/cache construction.  MODE is

``setup``
    set up and stop (extra ``setup_s`` samples);
``measure``
    set up, then one cold pass into a fresh cache, timed while
    ``calibrate.HostGauge`` samples the host's speed, then warm passes
    over the same specs that check results against the now-warm cache;
``trace``
    an untraced cold pass and its timed warm passes, then a traced cold
    and warm pass, all in-process on the serial backend, then the
    instrument-overhead pass.

The last stdout line is one JSON object.  Nothing here changes the
package: the traced pass wraps entry points from ``spans.py``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from calibrate import HostGauge, host_slowness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.obs.profile import PhaseProfiler  # noqa: E402
from repro.obs.recorder import MemoryRecorder  # noqa: E402
from repro.runner.cache import ResultCache  # noqa: E402
from repro.runner.runner import ParallelRunner  # noqa: E402
from repro.sim.simulation import Simulation  # noqa: E402

#: warm passes after a cold pass; each repeats identical work, and
#: their median is ``runner.warm_ms_per_run``
WARM_PASSES = 50
#: the instrument-overhead pass simulates the first this-many specs
OBS_SPECS = 4
#: bound on the recorder's memory in the overhead pass (events per run)
OBS_MAX_EVENTS = 200_000
#: named layer spans must cover this share of traced wall time
MIN_COVERAGE = 0.85


class RecordingRunner(ParallelRunner):
    """A ParallelRunner that keeps every ``(spec, result)`` it returns."""

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self.log: list = []

    def run_batch(self, specs, label="batch"):  # type: ignore[override]
        specs = list(specs)
        results = super().run_batch(specs, label=label)
        self.log.extend(zip(specs, results))
        return results


def make_runner(workdir: pathlib.Path, tag: str) -> RecordingRunner:
    """A fresh cache and manifest directory per pass; progress output
    off; the ``serial`` backend, so load comes from this one process."""
    return RecordingRunner(
        cache=ResultCache(workdir / f"cache-{tag}"),
        runs_dir=workdir / f"runs-{tag}",
        progress=None,
        backend="serial",
    )


def timed_pass(
    workload, runner: RecordingRunner, seed: int, gauge: HostGauge = None
) -> tuple:
    """Wall seconds of one pass, less the gauge samples taken during it,
    and the pass's output."""
    spent = gauge.spent_s if gauge is not None else 0.0
    started = time.perf_counter()
    output = workload.run(runner, seed)
    wall = time.perf_counter() - started
    return wall - (gauge.spent_s - spent if gauge is not None else 0.0), output


def canonical(result) -> str:
    """A result's bytes for comparison (NaN-safe, unlike ``==``)."""
    if result is None:
        return "null"
    return json.dumps(result.to_dict(), sort_keys=True)


def digest(log: list) -> str:
    """SHA-256 over every spec's cache key and canonical result."""
    outputs = {spec.cache_key(): canonical(result) for spec, result in log}
    blob = json.dumps(sorted(outputs.items()))
    return hashlib.sha256(blob.encode()).hexdigest()


def check_pass(
    name: str, workload, output: object, log: list, problems: list
) -> int:
    """Failed cells of one pass; a final result that committed nothing
    is a problem."""
    stalled = sum(1 for value in workload.finals(output) if not value > 0)
    if stalled:
        problems.append(f"{name}: {stalled} final results committed nothing")
    return sum(1 for _, result in log if result is None)


def same_outputs(name: str, first: list, second: list, problems: list) -> None:
    """Two passes dispatched the same specs and got identical results."""
    if [spec for spec, _ in first] != [spec for spec, _ in second]:
        problems.append(f"{name}: dispatched a different spec list")
    elif [canonical(r) for _, r in first] != [canonical(r) for _, r in second]:
        problems.append(f"{name}: results differ")


def warm_hit_ratio(
    runner: RecordingRunner, before: tuple, problems: list
) -> float:
    """Cache hit ratio since ``before`` = (hits, misses); must be 1.0."""
    hits = runner.cache_hits - before[0]
    ratio = hits / max(1, hits + runner.cache_misses - before[1])
    if ratio != 1.0:
        problems.append(f"warm pass hit ratio {ratio:.3f}, expected 1.0")
    return ratio


def warm_passes(
    workload, runner: RecordingRunner, seed: int, cold: list, problems: list
) -> float:
    """``WARM_PASSES`` identical passes against the now-warm cache.

    Each must return the cold pass's results, with a hit ratio of 1.0.
    Returns the median ms per run, at nominal host speed.
    """
    before = (runner.cache_hits, runner.cache_misses)
    # a user's warm re-run starts in a fresh process, not one holding
    # the simulations' cyclic garbage
    gc.collect()
    warm_ms: list = []
    with HostGauge() as gauge:
        for _ in range(WARM_PASSES):
            runner.log.clear()
            wall, _ = timed_pass(workload, runner, seed, gauge)
            warm_ms.append(wall * 1e3 / max(1, len(runner.log)))
            same_outputs("warm vs cold", cold, runner.log, problems)
    warm_hit_ratio(runner, before, problems)
    return statistics.median(warm_ms) / gauge.slowness


def measure(workload, seed: int, runner: RecordingRunner) -> dict:
    """One cold pass, timed; the warm passes after it only check."""
    problems: list = []
    with HostGauge() as gauge:
        cold_s, output = timed_pass(workload, runner, seed, gauge)
    cold = list(runner.log)
    warm_passes(workload, runner, seed, cold, problems)
    failed = check_pass("cold", workload, output, cold, problems)
    return {
        "cold_s": cold_s,
        "cold_slowness": gauge.slowness,
        "commits": sum(r.completed for _, r in cold if r is not None),
        "attempted": len(cold),
        "failed": failed,
        "digest": digest(cold),
        "problems": sorted(set(problems)),
    }


def traced_pass(
    tracer, workload, runner: RecordingRunner, seed: int
) -> tuple:
    """One pass with every layer's entry points wrapped by ``tracer``
    (``tracer=None``: the untraced reference pass), as ``timed_pass``."""
    gc.collect()  # start each pass without the previous one's garbage
    undo = spans.install(tracer) if tracer is not None else []
    try:
        return timed_pass(workload, runner, seed)
    finally:
        spans.uninstall(undo)


def traced(workload, seed: int, workdir: pathlib.Path) -> dict:
    problems: list = []
    untraced_runner = make_runner(workdir, "untraced")
    untraced_s, _ = traced_pass(None, workload, untraced_runner, seed)
    untraced = list(untraced_runner.log)
    warm_ms = warm_passes(workload, untraced_runner, seed, untraced, problems)

    cold_tracer, warm_tracer = spans.SpanTracer(), spans.SpanTracer()
    runner = make_runner(workdir, "traced")
    traced_s, output = traced_pass(cold_tracer, workload, runner, seed)
    cold = list(runner.log)
    runs = runner.cache_hits + runner.cache_misses
    before = (runner.cache_hits, runner.cache_misses)
    runner.log.clear()
    traced_pass(warm_tracer, workload, runner, seed)
    hit_ratio = warm_hit_ratio(runner, before, problems)
    same_outputs("traced vs untraced", untraced, cold, problems)
    same_outputs("traced warm vs cold", cold, runner.log, problems)
    failed = check_pass("traced", workload, output, cold, problems)

    metrics = layer_metrics(cold_tracer, warm_tracer, runs, traced_s)
    metrics["runner.hit_ratio"] = hit_ratio
    metrics["runner.warm_ms_per_run"] = warm_ms
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    if metrics["trace.other_frac"] > 1.0 - MIN_COVERAGE:
        problems.append(
            f"layer spans cover {1 - metrics['trace.other_frac']:.1%} "
            f"of traced wall time, expected >= {MIN_COVERAGE:.0%}"
        )
    metrics.update(instrument_overhead(
        [spec for spec, _ in untraced][:OBS_SPECS], problems
    ))
    return {
        "metrics": metrics,
        "attempted": len(cold),
        "failed": failed,
        "digest": digest(untraced),
        "problems": sorted(set(problems)),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    cold: spans.SpanTracer, warm: spans.SpanTracer, runs: int, wall_s: float
) -> dict:
    """The per-layer metrics: cold-pass layers, warm-pass cache path."""
    model = cold.model
    events = model.get("events", 0)
    commits = model.get("commits", 0)
    delays = model.get("delays", 0)
    grants = model.get("grants", 0)
    decisions = grants + model.get("blocks", 0) + delays
    wtpg_calls = cold.calls_of("wtpg.")
    inner = cold.inclusive_s
    overhead_s = (
        inner.get("runner.ParallelRunner.run_batch", 0.0)
        - inner.get("runner.execute_spec", 0.0)
    )
    metrics = {f"{layer}.self_s": cold.self_s[layer] for layer in spans.LAYERS}
    metrics.update({
        "des.events": events,
        "des.ns_per_event": _ratio(cold.self_s["des"] * 1e9, events),
        "des.events_per_commit": _ratio(events, commits),
        "machine.cn_slices": cold.calls_of("machine.ControlNode.consume"),
        "machine.cohorts": cold.calls_of("machine.DataProcessingNode.submit"),
        "machine.cn_util": _ratio(
            model.get("cn_util", 0.0), model.get("simulations", 0)
        ),
        "machine.cn_cc_share": _ratio(
            model.get("cn_cc_ms", 0.0), model.get("cn_ms", 0.0)
        ),
        "sched.grants": grants,
        "sched.blocks": model.get("blocks", 0),
        "sched.delays": delays,
        "sched.delays_per_commit": _ratio(delays, commits),
        "sched.grant_ratio": _ratio(grants, decisions),
        "sched.restarts_per_commit": _ratio(model.get("restarts", 0), commits),
        "locks.calls": cold.calls_of("locks."),
        "wtpg.calls": wtpg_calls,
        "wtpg.us_per_call": _ratio(cold.self_s["wtpg"] * 1e6, wtpg_calls),
        "chain.calls": cold.calls_of("chain."),
        "txn.arrivals": cold.calls_of("txn.make_transaction"),
        "runner.batches": cold.calls_of("runner.ParallelRunner.run_batch"),
        "runner.runs": runs,
        "runner.overhead_ms_per_run": _ratio(overhead_s * 1e3, runs),
        "runner.cache_key_us": _ratio(
            warm.inclusive_s.get("runner.RunSpec.cache_key", 0.0) * 1e6,
            warm.calls_of("runner.RunSpec.cache_key"),
        ),
        "runner.cache_get_ms": _ratio(
            warm.inclusive_s.get("runner.ResultCache.get", 0.0) * 1e3,
            warm.calls_of("runner.ResultCache.get"),
        ),
        "runner.cache_put_ms": _ratio(
            inner.get("runner.ResultCache.put", 0.0) * 1e3,
            cold.calls_of("runner.ResultCache.put"),
        ),
        "bisect.probes": model.get("probes", 0),
        "trace.other_frac": max(0.0, wall_s - cold.covered_s()) / wall_s,
    })
    return metrics


def instrument_overhead(specs: list, problems: list) -> dict:
    """Profiler and recorder on versus off, through ``Simulation``'s own
    ``profiler=`` / ``recorder=`` arguments; results must not change."""
    instruments = {
        "off": dict,
        "profiler": lambda: {"profiler": PhaseProfiler()},
        "recorder": lambda: {
            "recorder": MemoryRecorder(max_events=OBS_MAX_EVENTS)
        },
    }
    walls = dict.fromkeys(instruments, 0.0)
    for spec in specs:
        results = {}
        for name, attach in instruments.items():
            simulation = Simulation(
                spec.config, spec.workload.build(), scheduler=spec.scheduler,
                seed=spec.seed, duration_ms=spec.duration_ms,
                warmup_ms=spec.warmup_ms, **attach(),
            )
            gc.collect()
            started = time.perf_counter()
            result = simulation.run()
            walls[name] += time.perf_counter() - started
            results[name] = canonical(result)
        if len(set(results.values())) != 1:
            problems.append(f"instruments changed {spec.describe()}")
    return {
        "obs.profiler_overhead_frac": walls["profiler"] / walls["off"] - 1.0,
        "obs.recorder_overhead_frac": walls["recorder"] / walls["off"] - 1.0,
    }


def main(argv: list) -> int:
    mode, name, seed_text, workdir_text, spawned_text = argv
    workload = WORKLOADS[name]
    seed = int(seed_text)
    workdir = pathlib.Path(workdir_text)
    runner = make_runner(workdir, "cold") if mode != "trace" else None
    setup_s = time.monotonic() - float(spawned_text)
    if mode == "trace":
        report = traced(workload, seed, workdir)
    else:
        report = {"setup_slowness": host_slowness()}
        if mode == "measure":
            report.update(measure(workload, seed, runner))
    report["setup_s"] = setup_s
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
