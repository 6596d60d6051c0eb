"""Backend conformance battery: every registered executor backend.

The same scenarios run against each backend so a new backend is "done"
when this file is green: result byte-identity against the serial
reference, cache reuse, stall kill-and-retry, worker-death triage and
Ctrl-C finalization.  Kill/death scenarios are limited to the backends
that run jobs in child processes -- the inline ``serial`` backend *is*
the reference and cannot survive killing itself.
"""

import json
import subprocess
import sys

import pytest

from repro.machine import MachineConfig
from repro.obs import read_status, read_telemetry_records
from repro.runner import (
    ParallelRunner,
    ResultCache,
    RunSpec,
    WorkloadSpec,
    backend_names,
    get_backend_info,
)
from repro.runner.backends.base import ExecutorBackend, child_environment
from repro.runner.backends.task import run_task, sweep_task
from repro.runner.worker import EXIT_TEST_ENV, STALL_TEST_ENV, execute_spec

#: every backend, so none can exist without conformance coverage
ALL_BACKENDS = backend_names()
#: backends that execute jobs in child processes (kill/death scenarios)
POOL_BACKENDS = [name for name in ALL_BACKENDS if name != "serial"]


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


def make_runner(tmp_path, backend, **overrides):
    options = dict(
        pool_size=2,
        cache=None,
        runs_dir=tmp_path / "runs",
        progress=None,
        telemetry=True,
        heartbeat_s=0.0,
        progress_every=16,
        backend=backend,
    )
    options.update(overrides)
    return ParallelRunner(**options)


def batch_records(runner):
    path = runner.runs_dir / runner.last_batch_id / "telemetry.jsonl"
    return read_telemetry_records(path, 0)[0]


class TestRegistry:
    def test_all_expected_backends_registered(self):
        # the battery compares every backend with the serial reference
        assert "serial" in ALL_BACKENDS
        assert POOL_BACKENDS

    def test_unknown_backend_is_rejected_with_candidates(self):
        with pytest.raises(KeyError, match="registered:"):
            get_backend_info("fpga")
        with pytest.raises(ValueError, match="fpga"):
            ParallelRunner(backend="fpga")

    def test_capability_flags(self):
        assert set(backend_names()) == {"serial", "local", "asyncio"}
        assert not get_backend_info("local").load().isolates_runs
        assert get_backend_info("asyncio").load().isolates_runs
        # the isolation the table prints matches the flag triage reads
        for name in POOL_BACKENDS:
            info = get_backend_info(name)
            assert info.load().isolates_runs == (info.isolation == "per run")

    def test_registered_paths_load_backend_classes(self):
        for name in backend_names():
            assert issubclass(get_backend_info(name).load(), ExecutorBackend)

    def test_flags_and_summaries_import_no_backend_module(self):
        script = (
            "import json, sys\n"
            "from repro.cli import main\n"
            "from repro.runner.backends import backend_names, "
            "get_backend_info\n"
            "infos = [get_backend_info(n) for n in backend_names()]\n"
            "assert all(i.summary and i.isolation for i in infos)\n"
            "assert main(['backends']) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], env=child_environment(),
            capture_output=True, text=True, check=True, timeout=120,
        )
        loaded = json.loads(out.stdout.splitlines()[-1])
        backend_modules = {
            get_backend_info(name).path.rpartition(".")[0]
            for name in backend_names()
        }
        assert "asyncio" in out.stdout
        assert backend_modules.isdisjoint(loaded)


class TestTask:
    def test_only_sweep_tasks_run(self):
        task = sweep_task(0, make_specs(1)[0])
        assert task["kind"] == "sweep"
        with pytest.raises(ValueError, match="unknown task kind 'bench'"):
            run_task({**task, "kind": "bench"})


class TestConformance:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_results_byte_identical_to_serial_reference(
        self, tmp_path, backend
    ):
        specs = make_specs(3)
        reference = [execute_spec(spec).to_dict() for spec in specs]
        runner = make_runner(tmp_path, backend)
        results = runner.run_batch(specs, label=f"conf-{backend}")
        assert [r.to_dict() for r in results] == reference
        meta = batch_records(runner)[0]
        assert meta["kind"] == "batch.meta"
        assert meta["backend"] == backend

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_cache_populated_by_one_backend_serves_another(
        self, tmp_path, backend
    ):
        cache = ResultCache(tmp_path / "cache")
        specs = make_specs(2)
        warm = make_runner(tmp_path, "serial", cache=cache)
        warm.run_batch(specs, label="warm")
        runner = make_runner(tmp_path, backend, cache=cache)
        results = runner.run_batch(specs, label=f"hit-{backend}")
        assert all(r is not None for r in results)
        counts = runner.last_batch["counts"]
        assert counts["cache_hits"] == 2
        assert counts["simulated"] == 0

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_interrupt_finalizes_artifacts_and_shuts_down(
        self, tmp_path, backend
    ):
        def listener(event):
            if event.kind == "run-done":
                raise KeyboardInterrupt

        runner = make_runner(
            tmp_path, backend, pool_size=1, progress=listener,
        )
        with pytest.raises(KeyboardInterrupt):
            runner.run_batch(make_specs(3), label=f"intr-{backend}")
        manifest = json.loads(runner.last_manifest_path.read_text())
        assert manifest["status"] == "interrupted"
        assert manifest["backend"] == backend
        status_path = runner.runs_dir / runner.last_batch_id / "status.json"
        assert read_status(status_path)["status"] == "interrupted"


class TestStallAcrossBackends:
    @pytest.mark.parametrize("backend", POOL_BACKENDS)
    def test_stalled_cell_is_retried_then_failed(
        self, tmp_path, backend, monkeypatch
    ):
        monkeypatch.setenv(STALL_TEST_ENV, "1:60")
        runner = make_runner(
            tmp_path, backend, stall_timeout_s=0.75, stall_retry=True,
        )
        results = runner.run_batch(make_specs(3), label=f"stall-{backend}")
        assert results[0] is not None and results[2] is not None
        assert results[1] is None
        assert "stalled" in runner.last_failures[1]
        kinds = [r["kind"] for r in batch_records(runner)]
        assert "run.stalled" in kinds
        assert "run.retry" in kinds

    def test_asyncio_kill_leaves_siblings_untouched(
        self, tmp_path, monkeypatch
    ):
        # regression: per-run kill must not take down healthy runs the
        # way breaking a shared process pool does -- each sibling cell
        # is started exactly once and completes
        monkeypatch.setenv(STALL_TEST_ENV, "1:60")
        runner = make_runner(
            tmp_path, "asyncio", pool_size=3,
            stall_timeout_s=0.75, stall_retry=True,
        )
        results = runner.run_batch(make_specs(3), label="kill-blast")
        assert results[0] is not None and results[2] is not None
        assert results[1] is None
        records = batch_records(runner)
        for sibling in (0, 2):
            starts = [
                r for r in records
                if r["kind"] == "run.start" and r["cell"] == sibling
            ]
            assert len(starts) == 1, f"cell {sibling} was restarted"


class TestWorkerDeathAcrossBackends:
    @pytest.mark.parametrize("backend", POOL_BACKENDS)
    def test_dead_worker_fails_only_its_cell(
        self, tmp_path, backend, monkeypatch
    ):
        monkeypatch.setenv(EXIT_TEST_ENV, "1")
        runner = make_runner(tmp_path, backend)
        results = runner.run_batch(make_specs(3), label=f"death-{backend}")
        assert results[0] is not None and results[2] is not None
        assert results[1] is None
        assert "died" in runner.last_failures[1]
        manifest = json.loads(runner.last_manifest_path.read_text())
        assert manifest["status"] == "partial"
        assert [r["status"] for r in manifest["runs"]] == [
            "done", "failed", "done",
        ]
