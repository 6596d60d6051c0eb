"""Pool conformance battery: the worker pool against the serial path.

The same scenarios run on both ``backend`` names -- ``serial`` (every
cell in-process, the reference) and ``local`` (a batch with more than
one worker runs on :class:`~repro.runner.pool.WorkerPool`): result
byte-identity, cache reuse and Ctrl-C finalization.  The kill and death
scenarios need worker processes, so they run on the pool only: a
stalled cell is retried and then failed, a dead worker fails only its
cell, a kill leaves its siblings alone, and workers are reused and
respawned.  One case repeats the byte-identity check under the
``spawn`` start method in a fresh interpreter.
"""

import json
import subprocess
import sys
import textwrap

import pytest

from repro import artifact
from repro.machine import MachineConfig
from repro.obs.export import read_jsonl
from repro.obs.telemetry import STATUS, WorkerTelemetry
from repro.runner import (
    ParallelRunner,
    ResultCache,
    RunSpec,
    WorkerTaskError,
    WorkloadSpec,
)
from repro.runner.pool import WorkerPool
from repro.runner.runner import BACKENDS, MANIFEST
from repro.runner.worker import EXIT_TEST_ENV, STALL_TEST_ENV, execute_spec
from tests import child_env

#: every accepted backend name, so none can exist without coverage
ALL_BACKENDS = sorted(BACKENDS)
#: the names that run a multi-worker batch on the worker pool
POOL_BACKENDS = [name for name in ALL_BACKENDS if name != "serial"]


def read_status(path):
    return artifact.load(path, STATUS)["payload"]


def read_manifest(path):
    return artifact.load(path, MANIFEST)["payload"]


def make_specs(count, duration_ms=15_000.0, scheduler="NODC"):
    return [
        RunSpec(
            scheduler=scheduler,
            workload=WorkloadSpec.make("exp1", 0.4, num_files=16),
            config=MachineConfig(),
            seed=seed,
            duration_ms=duration_ms,
            warmup_ms=0.0,
        )
        for seed in range(count)
    ]


def make_runner(tmp_path, backend="local", **overrides):
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
    return read_jsonl(path)


def start_pids(records):
    return [r["pid"] for r in records if r["kind"] == "run.start"]


class TestRegistry:
    def test_all_expected_backends_registered(self):
        # the battery compares the pool with the in-process reference
        assert "serial" in ALL_BACKENDS
        assert POOL_BACKENDS

    def test_unknown_backend_is_rejected_with_candidates(self):
        with pytest.raises(ValueError, match="fpga.*local"):
            ParallelRunner(backend="fpga")


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
        assert meta["payload"]["backend"] == backend

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

        runner = make_runner(tmp_path, backend, progress=listener)
        with pytest.raises(KeyboardInterrupt):
            runner.run_batch(make_specs(3), label=f"intr-{backend}")
        manifest = read_manifest(runner.last_manifest_path)
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
            tmp_path, backend, stall_timeout_s=0.75,
        )
        results = runner.run_batch(make_specs(3), label="stall")
        assert results[0] is not None and results[2] is not None
        assert results[1] is None
        assert "stalled" in runner.last_failures[1]
        kinds = [r["kind"] for r in batch_records(runner)]
        assert "run.stalled" in kinds
        assert "run.retry" in kinds

    def test_kill_leaves_siblings_untouched(self, tmp_path, monkeypatch):
        # cells 0 and 2 are long runs, still going when cell 1's worker
        # is killed: each is started exactly once and completes
        monkeypatch.setenv(STALL_TEST_ENV, "1:60")
        specs = make_specs(3, duration_ms=30_000_000.0)
        specs[1] = make_specs(2)[1]
        runner = make_runner(
            tmp_path, pool_size=3, stall_timeout_s=0.75,
            heartbeat_s=0.1, progress_every=4096,
        )
        results = runner.run_batch(specs, label="kill-blast")
        assert results[0] is not None and results[2] is not None
        assert results[1] is None
        records = batch_records(runner)
        kinds = [(r["kind"], r.get("cell")) for r in records]
        for sibling in (0, 2):
            assert kinds.count(("run.start", sibling)) == 1, (
                f"cell {sibling} was restarted"
            )
            assert kinds.index(("run.stalled", 1)) < kinds.index(
                ("run.done", sibling)
            )


class TestWorkerReuse:
    def test_workers_serve_many_cells(self, tmp_path):
        runner = make_runner(tmp_path)
        assert all(runner.run_batch(make_specs(6), label="reuse"))
        pids = start_pids(batch_records(runner))
        assert len(pids) == 6
        assert len(set(pids)) <= 2

    def test_killed_worker_is_replaced(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STALL_TEST_ENV, "1:60")
        runner = make_runner(tmp_path, stall_timeout_s=0.75)
        results = runner.run_batch(make_specs(6), label="respawn")
        assert [r is None for r in results] == [
            False, True, False, False, False, False,
        ]
        records = batch_records(runner)
        assert len(set(start_pids(records))) <= 3
        killed = next(
            r["pid"] for r in records
            if r["kind"] == "run.start" and r["cell"] == 1
        )
        stalled = next(
            i for i, r in enumerate(records) if r["kind"] == "run.stalled"
        )
        assert killed not in start_pids(records[stalled:])


class TestRecordsOverThePipe:
    def test_records_reach_the_stream_before_the_result(self, tmp_path):
        # the parent is the stream's only writer: by the time a cell's
        # result is reported, its worker's records are in the file
        specs = make_specs(4)
        seen = []

        def listener(event):
            if event.kind != "run-done":
                return
            cell = specs.index(event.spec)
            kinds = [
                r["kind"] for r in batch_records(runner)
                if r.get("cell") == cell
            ]
            seen.append(cell)
            assert kinds[0] == "run.start"
            assert "run.heartbeat" in kinds
            assert kinds[-1] == "run.done"

        runner = make_runner(tmp_path, progress=listener)
        assert all(runner.run_batch(specs, label="order"))
        assert sorted(seen) == [0, 1, 2, 3]

    def test_dead_workers_start_precedes_the_retry(
        self, tmp_path, monkeypatch
    ):
        # the worker exits right after sending run.start; the parent
        # drains that record before it reports the crash
        monkeypatch.setenv(EXIT_TEST_ENV, "1")
        runner = make_runner(tmp_path)
        runner.run_batch(make_specs(3), label="drain")
        cell1 = [
            r["kind"] for r in batch_records(runner) if r.get("cell") == 1
        ]
        assert cell1 == [
            "run.start", "run.retry", "run.start", "run.error",
        ]

    def test_blocking_poll_passes_records_until_an_outcome(self):
        records = []
        pool = WorkerPool(1, on_record=records.append)
        try:
            pool.submit(0, {
                "spec": make_specs(1)[0],
                "telemetry": WorkerTelemetry(
                    0, until_ms=15_000.0, heartbeat_s=0.0, progress_every=16,
                ),
            })
            [outcome] = pool.poll(None)
            assert outcome.cell == 0 and outcome.result is not None
            kinds = [r["kind"] for r in records]
            assert kinds[0] == "run.start" and kinds[-1] == "run.done"
            assert "run.heartbeat" in kinds
        finally:
            pool.shutdown()

    def test_kill_passes_on_records_already_sent(self, monkeypatch):
        # a record still unread in the pipe when the parent kills the
        # worker reaches ``on_record`` before the crash is reported
        monkeypatch.setenv(STALL_TEST_ENV, "0:60")
        records = []
        pool = WorkerPool(1, on_record=records.append)
        try:
            pool.submit(0, {
                "spec": make_specs(1)[0],
                "telemetry": WorkerTelemetry(0, until_ms=15_000.0),
            })
            assert pool._busy[0].conn.poll(30), "no run.start within 30 s"
            assert pool.kill(0)
            assert [r["kind"] for r in records] == ["run.start"]
            [outcome] = pool.poll(0)
            assert outcome.cell == 0 and outcome.crashed
        finally:
            pool.shutdown()


class TestWorkerDeathAcrossBackends:
    @pytest.mark.parametrize("backend", POOL_BACKENDS)
    def test_dead_worker_fails_only_its_cell(
        self, tmp_path, backend, monkeypatch
    ):
        monkeypatch.setenv(EXIT_TEST_ENV, "1")
        runner = make_runner(tmp_path, backend)
        results = runner.run_batch(make_specs(3), label="death")
        assert results[0] is not None and results[2] is not None
        assert results[1] is None
        assert "died" in runner.last_failures[1]
        manifest = read_manifest(runner.last_manifest_path)
        assert manifest["status"] == "partial"
        assert [r["status"] for r in manifest["runs"]] == [
            "done", "failed", "done",
        ]

    def test_worker_exception_carries_its_traceback(self, tmp_path):
        specs = make_specs(2)
        specs[1] = RunSpec(
            scheduler="NO-SUCH-SCHEDULER", workload=specs[1].workload,
            duration_ms=15_000.0,
        )
        runner = make_runner(tmp_path)
        with pytest.raises(WorkerTaskError) as caught:
            runner.run_batch(specs, label="raises")
        assert "NO-SUCH-SCHEDULER" in str(caught.value)
        assert "Traceback" in caught.value.traceback
        manifest = read_manifest(runner.last_manifest_path)
        assert manifest["status"] == "failed"


#: one scheduler of each kind the registry imports on first use: a
#: plain policy, the WTPG/chain solver, and a modern family
SPAWNED_SCHEDULERS = ("NODC", "GOW", "DGCC")

SPAWN = textwrap.dedent("""
    import json, multiprocessing
    multiprocessing.set_start_method("spawn")
    from repro.machine import MachineConfig
    from repro.runner import ParallelRunner, RunSpec, WorkloadSpec
    specs = [
        RunSpec(scheduler=name,
                workload=WorkloadSpec.make("exp1", 0.4, num_files=16),
                config=MachineConfig(), seed=seed, duration_ms=15_000.0)
        for name in %r for seed in range(2)
    ]
    runner = ParallelRunner(pool_size=2, progress=None)
    print(json.dumps([r.to_dict() for r in runner.run_batch(specs)]))
""") % (SPAWNED_SCHEDULERS,)


def test_spawned_workers_match_the_serial_reference():
    # spawned workers start from a fresh interpreter, so each resolves
    # its scheduler from the registry's table, as a serial run does
    out = subprocess.run(
        [sys.executable, "-c", SPAWN], env=child_env(),
        capture_output=True, text=True, check=True, timeout=120,
    )
    reference = [
        execute_spec(spec).to_dict()
        for name in SPAWNED_SCHEDULERS
        for spec in make_specs(2, scheduler=name)
    ]
    assert json.loads(out.stdout.splitlines()[-1]) == json.loads(
        json.dumps(reference)
    )
