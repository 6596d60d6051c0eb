"""Behavioural tests for the parallel batch runner.

The load-bearing property is determinism: a batch must yield
byte-identical results whatever the pool size, and a repeated batch must
be served from the cache (verified through the manifest counts).
"""

import json

import pytest

from repro import artifact
from repro.machine import MachineConfig
from repro.runner import (
    ParallelRunner,
    ResultCache,
    RunEvent,
    RunSpec,
    WorkloadSpec,
    execute_spec,
)
from repro.runner.runner import MANIFEST

QUICK = dict(duration_ms=20_000.0, warmup_ms=0.0)


def make_specs(schedulers=("NODC", "C2PL"), rates=(0.4, 0.8), **overrides):
    settings = dict(QUICK)
    settings.update(overrides)
    return [
        RunSpec(
            scheduler=scheduler,
            workload=WorkloadSpec.make("exp1", rate, num_files=16),
            config=MachineConfig(),
            seed=1,
            **settings,
        )
        for scheduler in schedulers
        for rate in rates
    ]


def serialise(results):
    return [
        json.dumps(r.to_dict(), sort_keys=True, allow_nan=True)
        for r in results
    ]


class TestDeterminism:
    def test_pool_sizes_yield_byte_identical_results(self, tmp_path):
        """The issue's acceptance check: pool=1 and pool=N agree exactly."""
        specs = make_specs()
        sequential = ParallelRunner(pool_size=1, progress=None)
        parallel = ParallelRunner(pool_size=4, progress=None)
        a = sequential.run_batch(specs, label="pool1")
        b = parallel.run_batch(specs, label="pool4")
        assert serialise(a) == serialise(b)
        assert [s.cache_key() for s in specs] == [
            s.cache_key() for s in make_specs()
        ]

    def test_results_keep_input_order(self):
        specs = make_specs(schedulers=("NODC", "ASL", "C2PL"), rates=(0.5,))
        results = ParallelRunner(pool_size=3, progress=None).run_batch(specs)
        assert [r.scheduler for r in results] == ["NODC", "ASL", "C2PL"]

    def test_matches_inline_execution(self):
        specs = make_specs(schedulers=("LOW",), rates=(0.6,))
        runner = ParallelRunner(pool_size=2, progress=None)
        assert serialise(runner.run_batch(specs)) == serialise(
            [execute_spec(spec) for spec in specs]
        )


class TestCaching:
    def test_second_invocation_served_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        specs = make_specs()
        first = ParallelRunner(pool_size=1, cache=cache, progress=None)
        cold = first.run_batch(specs, label="cold")
        assert first.last_batch["counts"]["cache_hits"] == 0
        assert first.last_batch["counts"]["cache_misses"] == len(specs)

        second = ParallelRunner(pool_size=1, cache=cache, progress=None)
        warm = second.run_batch(specs, label="warm")
        assert second.last_batch["counts"]["cache_hits"] == len(specs)
        assert second.last_batch["counts"]["cache_misses"] == 0
        assert serialise(cold) == serialise(warm)

    def test_duplicate_specs_coalesce_to_one_simulation(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = ParallelRunner(pool_size=1, cache=cache, progress=None)
        spec = make_specs(schedulers=("NODC",), rates=(0.5,))[0]
        results = runner.run_batch([spec, spec, spec])
        counts = runner.last_batch["counts"]
        assert counts["simulated"] == 1
        assert counts["coalesced"] == 2
        assert serialise(results) == serialise([results[0]] * 3)
        assert len(cache) == 1

    def test_runner_without_cache_still_runs(self):
        runner = ParallelRunner(pool_size=1, progress=None)
        [result] = runner.run_batch(
            make_specs(schedulers=("NODC",), rates=(0.5,))
        )
        assert result.completed > 0


class TestManifest:
    def test_manifest_written_with_counts_and_specs(self, tmp_path):
        runner = ParallelRunner(
            pool_size=1,
            cache=ResultCache(tmp_path / "cache"),
            runs_dir=tmp_path / "runs",
            progress=None,
        )
        specs = make_specs(schedulers=("NODC",), rates=(0.4, 0.8))
        runner.run_batch(specs, label="my sweep")
        path = runner.last_manifest_path
        assert path is not None and path.exists()
        document = artifact.load(path, MANIFEST)
        assert document["family"] == "manifest"
        payload = document["payload"]
        assert payload["label"] == "my sweep"
        assert payload["pool_size"] == 1
        assert payload["counts"]["total"] == 2
        assert payload["counts"]["cache_misses"] == 2
        assert len(payload["runs"]) == 2
        assert payload["runs"][0]["spec"]["scheduler"] == "NODC"
        assert payload["runs"][0]["key"] == specs[0].cache_key()

    def test_batches_get_distinct_manifests(self, tmp_path):
        runner = ParallelRunner(
            pool_size=1, runs_dir=tmp_path / "runs", progress=None
        )
        specs = make_specs(schedulers=("NODC",), rates=(0.4,))
        runner.run_batch(specs, label="a")
        first = runner.last_manifest_path
        runner.run_batch(specs, label="b")
        assert runner.last_manifest_path != first
        assert len(list((tmp_path / "runs").glob("*.json"))) == 2


class TestProgress:
    def test_events_stream_per_run(self):
        events = []
        runner = ParallelRunner(pool_size=1, progress=events.append)
        specs = make_specs(schedulers=("NODC",), rates=(0.4, 0.8))
        runner.run_batch(specs, label="probe")
        kinds = [event.kind for event in events]
        assert kinds == ["batch-start", "run-done", "run-done", "batch-done"]
        assert all(event.label == "probe" for event in events)
        done_events = [e for e in events if e.kind == "run-done"]
        assert [e.done for e in done_events] == [1, 2]
        assert done_events[0].spec is not None

    def test_print_progress_writes_lines(self, capsys):
        from repro.runner import print_progress
        import sys

        print_progress(
            RunEvent("batch-start", "x", 0, 3), stream=sys.stderr
        )
        print_progress(
            RunEvent("run-done", "x", 1, 3, cached=True), stream=sys.stderr
        )
        err = capsys.readouterr().err
        assert "3 run(s)" in err
        assert "cache" in err


class TestValidation:
    def test_rejects_zero_pool(self):
        with pytest.raises(ValueError):
            ParallelRunner(pool_size=0)
