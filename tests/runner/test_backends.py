"""Backend conformance battery: every registered executor backend.

The same scenarios run against each backend so a new backend is "done"
when this file is green: result byte-identity against the serial
reference, cache reuse, stall kill-and-retry, worker-death triage and
Ctrl-C finalization.  Kill/death scenarios are limited to the backends
that run jobs in child processes -- the inline ``serial`` backend *is*
the reference and cannot survive killing itself.
"""

import json
import os
import signal
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
    create_backend,
    get_backend_info,
)
from repro.runner.backends import SharedDirBackend, worker_pool_loop
from repro.runner.backends.base import ExecutorBackend, child_environment
from repro.runner.backends.shared_dir import spool_dirs
from repro.runner.backends.task import run_task, sweep_task
from repro.runner.worker import EXIT_TEST_ENV, STALL_TEST_ENV, execute_spec

ALL_BACKENDS = ["serial", "local", "asyncio", "shared-dir"]
#: backends that execute jobs in child processes (kill/death scenarios)
POOL_BACKENDS = ["local", "asyncio", "shared-dir"]


def backend_options(name, tmp_path):
    if name == "shared-dir":
        return {"spool": tmp_path / "spool"}
    return {}


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
        backend_options=backend_options(backend, tmp_path),
    )
    options.update(overrides)
    return ParallelRunner(**options)


def batch_records(runner):
    path = runner.runs_dir / runner.last_batch_id / "telemetry.jsonl"
    return read_telemetry_records(path, 0)[0]


class TestRegistry:
    def test_all_expected_backends_registered(self):
        assert set(ALL_BACKENDS) <= set(backend_names())

    def test_unknown_backend_is_rejected_with_candidates(self):
        with pytest.raises(KeyError, match="registered:"):
            get_backend_info("fpga")
        with pytest.raises(ValueError, match="fpga"):
            ParallelRunner(backend="fpga")

    def test_capability_flags(self):
        assert get_backend_info("serial").flags.inline
        assert get_backend_info("local").flags.supports_kill
        assert get_backend_info("asyncio").flags.isolates_runs
        assert get_backend_info("shared-dir").flags.distributed

    def test_shared_dir_requires_a_spool(self):
        with pytest.raises(ValueError, match="spool"):
            create_backend("shared-dir", workers=1)

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
            "assert all(i.summary and i.flags for i in infos)\n"
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
        assert "shared-dir" in out.stdout
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


class TestSharedDirProtocol:
    def test_remote_only_spool_served_by_worker_pool_loop(self, tmp_path):
        # local_workers=0: the sweeping side only spools tickets; an
        # explicit worker_pool_loop call (the `repro worker-pool` body)
        # plays the remote host
        import threading

        spool = tmp_path / "spool"
        server = threading.Thread(
            target=worker_pool_loop,
            args=(spool,),
            kwargs={"idle_exit_s": 30.0, "max_tasks": 2},
            daemon=True,
        )
        server.start()
        runner = make_runner(
            tmp_path, "shared-dir",
            backend_options={"spool": spool, "local_workers": 0},
        )
        results = runner.run_batch(make_specs(2), label="remote-only")
        server.join(timeout=30.0)
        assert [r.to_dict() for r in results] == [
            execute_spec(spec).to_dict() for spec in make_specs(2)
        ]

    def test_expired_lease_counts_as_crash_and_is_resubmitted(
        self, tmp_path
    ):
        # a ticket claimed by a worker that vanishes (host reboot: no
        # dead local pid to observe) must come back via lease expiry
        spool = tmp_path / "spool"
        claimed = spool_dirs(spool)[1]
        backend = SharedDirBackend(
            workers=1, spool=spool, local_workers=0, lease_s=1.0
        )
        try:
            spec = make_specs(1)[0]
            task = sweep_task(0, spec, None, None, None)
            # forge an already-claimed ticket from a foreign host so the
            # backend's first scan sees a claim it cannot attribute to
            # any local worker
            name = "zzz-remote-c0-a1.task.json"
            (claimed / name).write_text(json.dumps(task))
            old = os.stat(claimed / name).st_mtime - 60.0
            os.utime(claimed / name, (old, old))
            backend._inflight[name] = task  # as submit() would have
            outcomes = backend.poll(10.0)
            assert len(outcomes) == 1
            assert outcomes[0].crashed
            assert "lease" in (outcomes[0].error or "")
        finally:
            backend.shutdown()

    def test_cancel_unlinks_pending_tickets(self, tmp_path):
        spool = tmp_path / "spool"
        backend = SharedDirBackend(
            workers=1, spool=spool, local_workers=0
        )
        try:
            spec = make_specs(1)[0]
            backend.submit(sweep_task(0, spec, None, None, None))
            pending = spool_dirs(spool)[0]
            assert list(pending.iterdir())
            assert backend.cancel(0)
            assert not list(pending.iterdir())
        finally:
            backend.shutdown()

    def test_shutdown_reaps_spawned_workers(self, tmp_path):
        backend = SharedDirBackend(
            workers=2, spool=tmp_path / "spool", local_workers=2
        )
        spec = make_specs(1)[0]
        backend.submit(sweep_task(0, spec, None, None, None))
        pids = [proc.pid for proc in backend._procs]
        assert pids
        backend.shutdown()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, signal.SIGCONT)
