"""Per-run trace artifacts through the parallel runner."""

import json

import pytest

from repro import artifact
from repro.machine import MachineConfig
from repro.obs.events import TRACE, TraceEvent
from repro.runner import ParallelRunner, ResultCache, RunSpec, WorkloadSpec
from repro.runner.worker import (
    execute_spec,
    series_artifact_path,
    trace_artifact_path,
)

QUICK = dict(duration_ms=20_000.0, warmup_ms=0.0)


def spec(trace=True, scheduler="C2PL", rate=0.6, **overrides):
    settings = dict(QUICK)
    settings.update(overrides)
    return RunSpec(
        scheduler=scheduler,
        workload=WorkloadSpec.make("exp1", rate, num_files=16),
        config=MachineConfig(),
        seed=1,
        trace=trace,
        **settings,
    )


class TestSpecFlag:
    def test_trace_flag_changes_cache_key(self):
        assert spec(trace=True).cache_key() != spec(trace=False).cache_key()

    def test_trace_flag_round_trips(self):
        restored = RunSpec.from_dict(spec(trace=True).to_dict())
        assert restored == spec(trace=True)
        # legacy payloads without the field default to untraced
        payload = spec(trace=False).to_dict()
        del payload["trace"]
        assert RunSpec.from_dict(payload).trace is False

    def test_describe_mentions_trace(self):
        assert "trace" in spec(trace=True).describe()
        assert "trace" not in spec(trace=False).describe()


class TestExecuteSpec:
    def test_writes_validating_artifact(self, tmp_path):
        s = spec()
        result = execute_spec(s, traces_dir=tmp_path)
        path = trace_artifact_path(tmp_path, s)
        assert path.exists()
        assert artifact.check_stream(path, TRACE) > 1
        assert result.completed > 0
        meta = json.loads(path.read_text().splitlines()[0])["payload"]
        assert meta["scheduler"] == "C2PL"
        assert meta["seed"] == 1

    def test_failed_write_leaves_no_artifact(self, tmp_path, monkeypatch):
        # the artifact is content-addressed: a prefix left at its path
        # would pass for the whole run, so a failed write leaves nothing
        to_record = TraceEvent.to_record
        calls = []

        def failing(event):
            calls.append(event)
            if len(calls) == 10:
                raise RuntimeError("disk gone")
            return to_record(event)

        monkeypatch.setattr(TraceEvent, "to_record", failing)
        s = spec()
        with pytest.raises(RuntimeError, match="disk gone"):
            execute_spec(s, traces_dir=tmp_path)
        assert len(calls) == 10
        assert not trace_artifact_path(tmp_path, s).exists()
        assert list(tmp_path.iterdir()) == []

    def test_untraced_spec_writes_nothing(self, tmp_path):
        execute_spec(spec(trace=False), traces_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_tracing_does_not_change_the_result(self, tmp_path):
        traced = execute_spec(spec(trace=True), traces_dir=tmp_path)
        untraced = execute_spec(spec(trace=False))
        # compare everything that is independent of the spec identity
        assert traced.completed == untraced.completed
        assert traced.mean_response_ms == untraced.mean_response_ms
        assert traced.blocks == untraced.blocks
        assert traced.restarts == untraced.restarts


class TestRunnerIntegration:
    def test_batch_writes_artifacts_and_manifest_paths(self, tmp_path):
        runner = ParallelRunner(
            pool_size=1,
            runs_dir=tmp_path / "runs",
            traces_dir=tmp_path / "traces",
            progress=None,
        )
        specs = [spec(scheduler="C2PL"), spec(scheduler="NODC")]
        runner.run_batch(specs, label="traced")
        for s in specs:
            assert trace_artifact_path(tmp_path / "traces", s).exists()
        entries = runner.last_batch["runs"]
        assert [e["trace_artifact"] for e in entries] == [
            str(trace_artifact_path(tmp_path / "traces", s)) for s in specs
        ]
        on_disk = json.loads(runner.last_manifest_path.read_text())
        assert on_disk["payload"]["runs"] == entries

    def test_untraced_batch_has_null_artifacts(self, tmp_path):
        runner = ParallelRunner(
            pool_size=1, traces_dir=tmp_path / "traces", progress=None
        )
        runner.run_batch([spec(trace=False)], label="plain")
        assert runner.last_batch["runs"][0]["trace_artifact"] is None
        assert not (tmp_path / "traces").exists()

    def test_pool_execution_writes_artifacts(self, tmp_path):
        runner = ParallelRunner(
            pool_size=2, traces_dir=tmp_path / "traces", progress=None
        )
        specs = [spec(rate=0.4), spec(rate=0.8)]
        runner.run_batch(specs, label="pooled")
        for s in specs:
            path = trace_artifact_path(tmp_path / "traces", s)
            assert path.exists()
            assert artifact.check_stream(path, TRACE) > 1

    def test_cached_rerun_keeps_artifact_reference(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        kwargs = dict(
            pool_size=1, cache=cache, traces_dir=tmp_path / "traces",
            progress=None,
        )
        first = ParallelRunner(**kwargs)
        first.run_batch([spec()], label="one")
        second = ParallelRunner(**kwargs)
        second.run_batch([spec()], label="two")
        assert second.cache_hits == 1
        # the cached run still references the content-addressed artifact
        entry = second.last_batch["runs"][0]
        assert entry["cached"] is True
        assert entry["trace_artifact"] == str(
            trace_artifact_path(tmp_path / "traces", spec())
        )

    def test_warm_cache_writes_missing_artifacts(self, tmp_path):
        # a cached result is no trace: a runner whose artifact
        # directories lack a traced (or sampled) spec's files simulates
        # the spec again to write them, and its manifest points at them
        cache = ResultCache(tmp_path / "cache")
        observed = spec(timeseries=True)
        ParallelRunner(
            pool_size=1, cache=cache, traces_dir=tmp_path / "A",
            series_dir=tmp_path / "A", progress=None,
        ).run_batch([observed], label="warm")
        runner = ParallelRunner(
            pool_size=1, cache=cache, runs_dir=tmp_path / "runs",
            traces_dir=tmp_path / "B", series_dir=tmp_path / "B",
            progress=None,
        )
        runner.run_batch([observed], label="fresh-dirs")
        trace = trace_artifact_path(tmp_path / "B", observed)
        series = series_artifact_path(tmp_path / "B", observed)
        assert artifact.check_stream(trace, TRACE) > 1
        assert series.exists()
        assert runner.cache_misses == 1
        entry = runner.last_batch["runs"][0]
        assert entry["cached"] is False
        assert entry["trace_artifact"] == str(trace)
        assert entry["series_artifact"] == str(series)
        on_disk = json.loads(runner.last_manifest_path.read_text())
        assert on_disk["payload"]["runs"][0] == entry

    def test_warm_cache_without_artifact_dirs_stays_a_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        kwargs = dict(pool_size=1, cache=cache, progress=None)
        ParallelRunner(**kwargs).run_batch([spec()], label="one")
        second = ParallelRunner(**kwargs)
        second.run_batch([spec()], label="two")
        assert second.cache_hits == 1
