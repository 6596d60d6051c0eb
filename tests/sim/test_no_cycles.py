"""A finished run leaves no cyclic garbage.

``Simulation.run`` closes its environment: parked generators are
closed, and the pending events and ``call_at`` batches are dropped.
Everything a run built is then freed by reference counting alone, so
peak memory does not wait for the cyclic collector.  A pending batch
holds bound methods of the model, so one left behind keeps a
node -> environment cycle alive; this pins that it is not.  Likewise a
CN slice in service or waiting at the horizon refers back to the control
node, which drops its pending slices when the run closes.  A profiled
run's wrappers refer back to their objects, so the run drops them too.
A request parked on its wake and its retry timer waits on a condition
that holds neither, and LOW-LB's WTPG reads the machine, not the
scheduler that holds it.
"""

import gc

import pytest

from repro.machine import MachineConfig
from repro.obs import MemoryRecorder
from repro.obs.profile import PhaseProfiler
from repro.runner.spec import RunSpec, WorkloadSpec
from repro.runner.worker import execute_spec
from repro.sim.simulation import Simulation
from repro.txn import experiment1_workload

#: (scheduler, DD): one short cell each, over the service paths and the
#: scheduler families that park processes
CELLS = [
    ("NODC", 8), ("OPT", 8), ("GOW", 1), ("LOW", 1), ("2PL", 4),
    ("LOW-LB", 1),
]


def assert_no_cyclic_garbage(scheduler, dd, duration_ms, warmup_ms):
    spec = RunSpec(
        scheduler=scheduler,
        workload=WorkloadSpec.make("exp1", 1.0, num_files=16),
        config=MachineConfig(dd=dd, num_files=16),
        seed=1,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
    )
    gc.collect()
    gc.disable()
    try:
        execute_spec(spec)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("scheduler,dd", CELLS)
def test_finished_run_leaves_no_cyclic_garbage(scheduler, dd):
    assert_no_cyclic_garbage(scheduler, dd, 60_000.0, 10_000.0)


def test_unfired_retry_fallback_leaves_no_cyclic_garbage():
    # LOW's DELAYed requests still parked on their wake and retry timer
    # when the horizon falls
    assert_no_cyclic_garbage("LOW", 1, 40_000.0, 0.0)


def test_run_ending_mid_slice_leaves_no_cyclic_garbage():
    # GOW's CC slices on a quarter-speed CN: the CPU never drains
    recorder = MemoryRecorder()
    simulation = Simulation(
        MachineConfig(dd=1, num_files=16, cpu_speed_mips=1.0),
        experiment1_workload(2.0, num_files=16),
        scheduler="GOW", seed=1,
        duration_ms=60_000.0, warmup_ms=10_000.0, recorder=recorder,
    )
    gc.collect()
    gc.disable()
    try:
        simulation.run()
        del simulation
        assert gc.collect() == 0
    finally:
        gc.enable()
    records = [event.to_record() for event in recorder.events]
    kinds = [record["kind"] for record in records]
    # the horizon fell inside a slice, with others waiting for the CPU
    assert kinds.count("cn.exec_start") == kinds.count("cn.exec_end") + 1
    depths = [
        record["depth"] for record in records if record["kind"] == "res.queue"
    ]
    assert depths[-1] > 0


def test_profiled_run_leaves_no_cyclic_garbage():
    profiler = PhaseProfiler()
    simulation = Simulation(
        MachineConfig(dd=1, num_files=16),
        experiment1_workload(1.0, num_files=16),
        scheduler="LOW", seed=1,
        duration_ms=60_000.0, warmup_ms=10_000.0, profiler=profiler,
    )
    gc.collect()
    gc.disable()
    try:
        simulation.run()
        del simulation
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert profiler.calls["sched"] > 0
