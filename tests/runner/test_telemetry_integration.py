"""Integration tests: live telemetry, stall detection, broken pools.

The deliberately-misbehaving workers come from the worker module's env
test hooks (:data:`STALL_TEST_ENV` sleeps heartbeat-free after
``run.start``; :data:`EXIT_TEST_ENV` kills the worker process), which
child processes inherit through the environment.
"""

import pytest

from repro import artifact
from repro.machine import MachineConfig
from repro.obs.export import read_jsonl
from repro.obs.telemetry import STATUS, TELEMETRY
from repro.runner import (
    ParallelRunner,
    ResultCache,
    RunRegistry,
    RunSpec,
    WorkloadSpec,
)
from repro.runner.runner import MANIFEST, _BatchTelemetry
from repro.runner.worker import EXIT_TEST_ENV, STALL_TEST_ENV


def read_status(path):
    return artifact.load(path, STATUS)["payload"]


def read_manifest(path):
    return artifact.load(path, MANIFEST)["payload"]


def make_specs(count, duration_ms=15_000.0):
    return [
        RunSpec(
            scheduler="NODC",
            workload=WorkloadSpec.make("exp1", 0.4, num_files=16),
            config=MachineConfig(),
            seed=seed,
            duration_ms=duration_ms,
            warmup_ms=0.0,
        )
        for seed in range(count)
    ]


def make_runner(tmp_path, **overrides):
    options = dict(
        pool_size=2,
        cache=None,
        runs_dir=tmp_path / "runs",
        progress=None,
        telemetry=True,
        heartbeat_s=0.0,
        progress_every=16,
    )
    options.update(overrides)
    return ParallelRunner(**options)


def batch_artifacts(runner):
    base = runner.runs_dir / runner.last_batch_id
    return base / "telemetry.jsonl", base / "status.json"


def stream_kinds(path):
    return [r["kind"] for r in read_jsonl(path)]


class TestBatchStream:
    def test_record_writes_stream_and_status(self, tmp_path):
        specs = make_specs(2)
        keys = [spec.cache_key() for spec in specs]
        tele = _BatchTelemetry(
            tmp_path, "b1", "unit", specs, keys,
            heartbeat_s=0.0, progress_every=16, stall_timeout_s=None,
        )
        tele.emit("run.cached", cell=0)
        worker = tele.worker_context(1, send=tele.record)
        worker.start()
        worker.done(wall_s=0.1, events=10)
        tele.finish("complete", 0.2)
        assert artifact.check_stream(tele.path, TELEMETRY) == 5
        assert stream_kinds(tele.path) == [
            "batch.meta", "run.cached", "run.start", "run.done",
            "batch.done",
        ]
        status = read_status(tele.status_path)
        assert status["status"] == "complete"
        assert [c["state"] for c in status["cells"]] == ["cached", "done"]


class TestHappyPath:
    def test_pool_batch_emits_valid_stream_and_full_status(self, tmp_path):
        runner = make_runner(tmp_path)
        results = runner.run_batch(make_specs(3), label="happy")
        assert all(r is not None for r in results)
        assert runner.last_failures == {}
        telemetry_path, status_path = batch_artifacts(runner)
        assert artifact.check_stream(telemetry_path, TELEMETRY) > 0
        kinds = stream_kinds(telemetry_path)
        assert kinds[0] == "batch.meta"
        assert kinds[-1] == "batch.done"
        assert kinds.count("run.start") == 3
        assert kinds.count("run.done") == 3
        status = read_status(status_path)
        assert status["status"] == "complete"
        assert status["progress"] == 1.0
        assert all(c["progress"] == 1.0 for c in status["cells"])
        assert status["counts"]["done"] == 3

    def test_heartbeats_flow_through_engine_hook(self, tmp_path):
        runner = make_runner(tmp_path, pool_size=1)
        runner.run_batch(make_specs(1, duration_ms=40_000.0), label="hb")
        telemetry_path, _ = batch_artifacts(runner)
        records = read_jsonl(telemetry_path)
        beats = [r for r in records if r["kind"] == "run.heartbeat"]
        assert beats, "expected at least one heartbeat"
        assert beats[-1]["sim_ms"] <= 40_000.0
        assert 0.0 < beats[-1]["progress"] <= 1.0

    def test_results_identical_with_telemetry_off(self, tmp_path):
        specs = make_specs(2)
        with_telemetry = make_runner(tmp_path).run_batch(specs, label="on")
        without = ParallelRunner(
            pool_size=2, cache=None, runs_dir=None, progress=None,
        ).run_batch(specs, label="off")
        assert (
            [r.to_dict() for r in with_telemetry]
            == [r.to_dict() for r in without]
        )

    def test_cached_and_coalesced_cells_reach_terminal_state(
        self, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        specs = make_specs(2)
        make_runner(tmp_path, cache=cache).run_batch(specs, label="warm")
        # second batch: cell 0 cache-hits, cells 1+2 coalesce
        runner = make_runner(tmp_path, cache=cache)
        duplicated = [specs[0], make_specs(3)[2], make_specs(3)[2]]
        results = runner.run_batch(duplicated, label="dup")
        assert results[1].to_dict() == results[2].to_dict()
        _, status_path = batch_artifacts(runner)
        status = read_status(status_path)
        assert status["counts"]["cached"] == 1
        assert status["counts"]["done"] == 2
        assert status["progress"] == 1.0
        manifest = read_manifest(runner.last_manifest_path)
        assert [r["status"] for r in manifest["runs"]] == [
            "cached", "done", "done",
        ]

    def test_telemetry_requires_runs_dir(self):
        with pytest.raises(ValueError, match="runs_dir"):
            ParallelRunner(telemetry=True, runs_dir=None)

    def test_stall_timeout_requires_telemetry(self, tmp_path):
        # stalls are read from heartbeats, which only telemetry sends
        with pytest.raises(ValueError, match="needs telemetry"):
            ParallelRunner(
                runs_dir=tmp_path / "runs", stall_timeout_s=5.0,
                telemetry=False,
            )

    def test_registry_records_running_then_terminal(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.run_batch(make_specs(2), label="reg")
        registry = RunRegistry(tmp_path / "runs")
        entry = registry.find("latest")
        assert entry["batch"] == runner.last_batch_id
        assert entry["status"] == "complete"
        assert entry["kind"] == "sweep"
        assert entry["total"] == 2
        # both the running and the terminal record were appended
        raw = registry.path.read_text().strip().splitlines()
        assert len(raw) == 2


class TestStallDetection:
    def test_stalled_worker_is_killed_and_reported(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(STALL_TEST_ENV, "1:60")
        runner = make_runner(tmp_path, stall_timeout_s=0.75)
        results = runner.run_batch(make_specs(3), label="stall")
        assert results[0] is not None and results[2] is not None
        assert results[1] is None
        assert "stalled" in runner.last_failures[1]
        telemetry_path, status_path = batch_artifacts(runner)
        kinds = stream_kinds(telemetry_path)
        assert "run.stalled" in kinds
        assert kinds.count("run.retry") == 1
        status = read_status(status_path)
        assert status["status"] == "partial"
        assert status["cells"][1]["state"] == "failed"
        manifest = read_manifest(runner.last_manifest_path)
        assert manifest["status"] == "partial"
        assert manifest["runs"][1]["status"] == "failed"
        assert "stalled" in manifest["runs"][1]["error"]

    def test_stalled_cell_is_retried_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STALL_TEST_ENV, "1:60")
        runner = make_runner(tmp_path, stall_timeout_s=0.75)
        results = runner.run_batch(make_specs(3), label="stall-retry")
        # the hook stalls attempt 2 as well, so the cell ends up failed
        # -- but only after a recorded retry
        assert results[1] is None
        kinds = stream_kinds(stream := batch_artifacts(runner)[0])
        assert "run.retry" in kinds
        records = read_jsonl(stream)
        starts = [r for r in records if r["kind"] == "run.start"
                  and r["cell"] == 1]
        assert len(starts) == 2
        status = read_status(batch_artifacts(runner)[1])
        assert status["cells"][1]["attempt"] == 2


class TestBrokenPool:
    def test_dead_worker_fails_only_its_cell(self, tmp_path, monkeypatch):
        monkeypatch.setenv(EXIT_TEST_ENV, "1")
        runner = make_runner(tmp_path)
        results = runner.run_batch(make_specs(3), label="death")
        assert results[0] is not None and results[2] is not None
        assert results[1] is None
        assert "died" in runner.last_failures[1]
        manifest = read_manifest(runner.last_manifest_path)
        assert manifest["status"] == "partial"
        assert [r["status"] for r in manifest["runs"]] == [
            "done", "failed", "done",
        ]
        assert manifest["counts"]["failed"] == 1

    def test_batch_without_telemetry_survives_death_too(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(EXIT_TEST_ENV, "0")
        runner = make_runner(tmp_path, telemetry=False)
        # the hook only fires for telemetry-context runs, so this batch
        # cannot observe it: it must simply complete
        results = runner.run_batch(make_specs(2), label="plain")
        assert all(r is not None for r in results)


class TestInterrupt:
    def test_sigint_writes_interrupted_manifest(self, tmp_path):
        seen = []

        def listener(event):
            seen.append(event.kind)
            if event.kind == "run-done":
                raise KeyboardInterrupt

        runner = make_runner(tmp_path, pool_size=1, progress=listener)
        with pytest.raises(KeyboardInterrupt):
            runner.run_batch(make_specs(3), label="interrupt")
        manifest = read_manifest(runner.last_manifest_path)
        assert manifest["status"] == "interrupted"
        statuses = [r["status"] for r in manifest["runs"]]
        assert statuses[0] == "done"
        assert "pending" in statuses
        status = read_status(batch_artifacts(runner)[1])
        assert status["status"] == "interrupted"
        entry = RunRegistry(tmp_path / "runs").find("latest")
        assert entry["status"] == "interrupted"
        assert seen[-1] == "batch-done"
