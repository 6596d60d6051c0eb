"""End-to-end tracing through real simulation runs.

The two load-bearing properties:

1. observation only -- a traced run returns byte-identical results to
   the same run untraced (the recorder draws no randomness and never
   touches the event queue);
2. the captured stream is schema-valid and exportable.
"""

import dataclasses
import json

import pytest

from repro import artifact
from repro.machine import MachineConfig
from repro.obs import MemoryRecorder, write_jsonl
from repro.obs.events import TRACE
from repro.obs.export import to_chrome_trace
from repro.obs.recorder import NULL_RECORDER
from repro.sim.simulation import Simulation, run_simulation
from repro.txn.workload import experiment1_workload

QUICK = dict(seed=2, duration_ms=40_000.0)


def _run(scheduler, recorder=None, **overrides):
    settings = dict(QUICK)
    settings.update(overrides)
    return run_simulation(
        scheduler,
        experiment1_workload(1.0),
        MachineConfig(dd=2),
        recorder=recorder,
        **settings,
    )


class TestObservationOnly:
    @pytest.mark.parametrize("scheduler", ["LOW", "GOW", "C2PL", "OPT", "2PL"])
    def test_traced_run_is_byte_identical(self, scheduler):
        untraced = _run(scheduler)
        recorder = MemoryRecorder()
        traced = _run(scheduler, recorder=recorder)
        assert dataclasses.asdict(traced) == dataclasses.asdict(untraced)
        assert len(recorder.events) > 0

    def test_tracing_twice_gives_identical_streams(self):
        first, second = MemoryRecorder(), MemoryRecorder()
        _run("LOW", recorder=first)
        _run("LOW", recorder=second)
        assert first.events == second.events


class TestDefaultOff:
    def test_environment_defaults_to_null_recorder(self):
        sim = Simulation(MachineConfig(), experiment1_workload(1.0))
        assert sim.env.trace is NULL_RECORDER
        assert sim.trace.enabled is False

    def test_recorder_installed_before_components_build(self):
        recorder = MemoryRecorder()
        sim = Simulation(
            MachineConfig(), experiment1_workload(1.0), recorder=recorder
        )
        # every component cached the live recorder at construction
        assert sim.env.trace is recorder
        assert sim.scheduler._trace is recorder
        assert sim.machine.data_nodes[0]._trace is recorder


class TestStreamContents:
    def test_timestamps_non_decreasing(self):
        recorder = MemoryRecorder()
        _run("C2PL", recorder=recorder)
        times = [e.time for e in recorder.events]
        assert times == sorted(times)

    def test_lifecycle_kinds_present(self):
        recorder = MemoryRecorder()
        _run("C2PL", recorder=recorder)
        kinds = recorder.kinds()
        for kind in ("txn.arrive", "txn.admit", "lock.grant", "lock.release",
                     "txn.step_start", "txn.step_end", "txn.commit",
                     "cn.exec_start", "cn.exec_end", "node.busy", "node.idle"):
            assert kinds.get(kind, 0) > 0, kind
        assert kinds["txn.step_start"] >= kinds["txn.step_end"]
        assert kinds["lock.grant"] >= kinds["lock.release"]

    @pytest.mark.parametrize("scheduler,kind", [
        ("GOW", "sched.chain_test"),
        ("LOW", "sched.kconflict"),
        ("LOW", "sched.e_eval"),
        ("C2PL", "sched.cycle_test"),
        ("OPT", "sched.opt_validation"),
    ])
    def test_policy_decisions_traced(self, scheduler, kind):
        recorder = MemoryRecorder()
        _run(scheduler, recorder=recorder)
        assert recorder.kinds().get(kind, 0) > 0

    def test_commit_count_matches_result(self):
        recorder = MemoryRecorder()
        result = _run("C2PL", recorder=recorder)
        assert recorder.kinds()["txn.commit"] == result.completed


class TestArtifacts:
    def test_jsonl_artifact_validates(self, tmp_path):
        recorder = MemoryRecorder()
        _run("LOW", recorder=recorder)
        path = write_jsonl(recorder.events, tmp_path / "run.jsonl",
                           meta={"scheduler": "LOW", "seed": QUICK["seed"]})
        assert artifact.check_stream(path, TRACE) == len(recorder.events) + 1

    def test_chrome_trace_json_serializable(self):
        recorder = MemoryRecorder()
        _run("GOW", recorder=recorder)
        payload = to_chrome_trace(recorder.events)
        parsed = json.loads(json.dumps(payload))
        assert len(parsed["traceEvents"]) > 0
        phases = {e["ph"] for e in parsed["traceEvents"]}
        assert {"X", "M"} <= phases
