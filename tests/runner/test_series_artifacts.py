"""Per-run time-series artifacts through the parallel runner."""

import json

from repro import artifact
from repro.machine import MachineConfig
from repro.obs.timeseries import SERIES
from repro.runner import ParallelRunner, ResultCache, RunSpec, WorkloadSpec
from repro.runner.worker import execute_spec, series_artifact_path

QUICK = dict(duration_ms=20_000.0, warmup_ms=0.0)


def spec(timeseries=True, scheduler="C2PL", rate=0.6, **overrides):
    settings = dict(QUICK)
    settings.update(overrides)
    return RunSpec(
        scheduler=scheduler,
        workload=WorkloadSpec.make("exp1", rate, num_files=16),
        config=MachineConfig(),
        seed=1,
        timeseries=timeseries,
        **settings,
    )


class TestSpecFlag:
    def test_timeseries_flag_changes_cache_key(self):
        assert (
            spec(timeseries=True).cache_key()
            != spec(timeseries=False).cache_key()
        )

    def test_timeseries_flag_round_trips(self):
        restored = RunSpec.from_dict(spec(timeseries=True).to_dict())
        assert restored == spec(timeseries=True)
        # legacy payloads without the field default to unsampled
        payload = spec(timeseries=False).to_dict()
        del payload["timeseries"]
        assert RunSpec.from_dict(payload).timeseries is False

    def test_describe_mentions_sampling(self):
        assert "ts" in spec(timeseries=True).describe().split()[-1]
        assert "[" not in spec(timeseries=False).describe()


class TestExecuteSpec:
    def test_writes_validating_artifact(self, tmp_path):
        s = spec()
        result = execute_spec(s, series_dir=tmp_path)
        path = series_artifact_path(tmp_path, s)
        assert path.exists()
        payload = artifact.load(path, SERIES)["payload"]
        assert payload["samples"] == 20  # 20s at the pinned 1s interval
        assert payload["meta"]["scheduler"] == "C2PL"
        assert "cn.util" in payload["series"]
        assert result.completed > 0

    def test_unsampled_spec_writes_nothing(self, tmp_path):
        execute_spec(spec(timeseries=False), series_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_sampling_does_not_change_the_result(self, tmp_path):
        sampled = execute_spec(spec(timeseries=True), series_dir=tmp_path)
        bare = execute_spec(spec(timeseries=False))
        assert sampled.completed == bare.completed
        assert sampled.mean_response_ms == bare.mean_response_ms
        assert sampled.blocks == bare.blocks

    def test_trace_and_series_can_combine(self, tmp_path):
        s = spec(timeseries=True, trace=True)
        execute_spec(
            s, traces_dir=tmp_path / "t", series_dir=tmp_path / "s"
        )
        assert series_artifact_path(tmp_path / "s", s).exists()
        assert (tmp_path / "t" / f"{s.cache_key()}.trace.jsonl").exists()


class TestRunnerIntegration:
    def test_batch_writes_artifacts_and_manifest_paths(self, tmp_path):
        runner = ParallelRunner(
            pool_size=1,
            runs_dir=tmp_path / "runs",
            series_dir=tmp_path / "series",
            progress=None,
        )
        specs = [spec(scheduler="C2PL"), spec(scheduler="NODC")]
        runner.run_batch(specs, label="sampled")
        for s in specs:
            assert series_artifact_path(tmp_path / "series", s).exists()
        entries = runner.last_batch["runs"]
        assert [e["series_artifact"] for e in entries] == [
            str(series_artifact_path(tmp_path / "series", s)) for s in specs
        ]
        on_disk = json.loads(runner.last_manifest_path.read_text())
        assert on_disk["payload"]["runs"] == entries

    def test_unsampled_batch_has_null_artifacts(self, tmp_path):
        runner = ParallelRunner(
            pool_size=1, series_dir=tmp_path / "series", progress=None
        )
        runner.run_batch([spec(timeseries=False)], label="plain")
        assert runner.last_batch["runs"][0]["series_artifact"] is None
        assert not (tmp_path / "series").exists()

    def test_pool_execution_writes_artifacts(self, tmp_path):
        runner = ParallelRunner(
            pool_size=2, series_dir=tmp_path / "series", progress=None
        )
        specs = [spec(rate=0.4), spec(rate=0.8)]
        runner.run_batch(specs, label="pooled")
        for s in specs:
            payload = artifact.load(
                series_artifact_path(tmp_path / "series", s), SERIES
            )["payload"]
            assert payload["samples"] == 20

    def test_cached_rerun_keeps_artifact_reference(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        kwargs = dict(
            pool_size=1, cache=cache, series_dir=tmp_path / "series",
            progress=None,
        )
        ParallelRunner(**kwargs).run_batch([spec()], label="one")
        second = ParallelRunner(**kwargs)
        second.run_batch([spec()], label="two")
        assert second.cache_hits == 1
        entry = second.last_batch["runs"][0]
        assert entry["cached"] is True
        assert entry["series_artifact"] == str(
            series_artifact_path(tmp_path / "series", spec())
        )
