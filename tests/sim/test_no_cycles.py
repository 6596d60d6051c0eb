"""A finished run leaves no cyclic garbage.

``Simulation.run`` closes its environment: parked generators are
closed, and the pending events and ``call_at`` batches are dropped.
Everything a run built is then freed by reference counting alone, so
peak memory does not wait for the cyclic collector.  A pending batch
holds bound methods of the model, so one left behind keeps a
node -> environment cycle alive; this pins that it is not.
"""

import gc

import pytest

from repro.machine import MachineConfig
from repro.runner.spec import RunSpec, WorkloadSpec
from repro.runner.worker import execute_spec

#: (scheduler, DD): one short cell each, over the service paths and the
#: scheduler families that park processes
CELLS = [("NODC", 8), ("OPT", 8), ("GOW", 1), ("LOW", 1), ("2PL", 4)]


@pytest.mark.parametrize("scheduler,dd", CELLS)
def test_finished_run_leaves_no_cyclic_garbage(scheduler, dd):
    spec = RunSpec(
        scheduler=scheduler,
        workload=WorkloadSpec.make("exp1", 1.0, num_files=16),
        config=MachineConfig(dd=dd, num_files=16),
        seed=1,
        duration_ms=60_000.0,
        warmup_ms=10_000.0,
    )
    gc.collect()
    gc.disable()
    try:
        execute_spec(spec)
        assert gc.collect() == 0
    finally:
        gc.enable()
