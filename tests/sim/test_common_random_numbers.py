"""Every scheduler sees the same arrivals at one seed.

Each random draw of a run comes from a named stream at arrival time
(interarrival, file choice, declaration error) and no scheduler draws,
so at one seed every registered scheduler is offered the very same
transactions: common random numbers, by construction.  Paired
comparisons of schedulers rest on this.
"""

import pytest

from repro.core.registry import available
from repro.machine import MachineConfig
from repro.sim.simulation import Simulation
from repro.txn import experiment1_workload, experiment3_workload

WORKLOADS = {
    "exp1": lambda: experiment1_workload(1.0, num_files=16),
    "exp3": lambda: experiment3_workload(1.0, sigma=0.5, num_files=16),
}


def arrivals(scheduler, workload):
    """``(arrival time, label, steps, declared costs)`` of every
    transaction ``make_transaction`` returned during one run."""
    seen = []
    make = workload.make_transaction

    def record(arrival_time, streams):
        txn = make(arrival_time, streams)
        seen.append((
            txn.arrival_time, txn.label, tuple(txn.steps),
            tuple(txn.declared_costs),
        ))
        return txn

    workload.make_transaction = record
    Simulation(
        MachineConfig(dd=4, num_files=16), workload, scheduler=scheduler,
        seed=3, duration_ms=120_000.0,
    ).run()
    return seen


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_every_scheduler_sees_the_same_arrivals(kind):
    schedulers = available()
    assert len(schedulers) >= 12
    reference = arrivals(schedulers[0], WORKLOADS[kind]())
    assert len(reference) > 100
    if kind == "exp3":
        # the declaration error perturbs what schedulers are told
        assert any(
            declared != tuple(step.cost for step in steps)
            for _, _, steps, declared in reference
        )
    for scheduler in schedulers[1:]:
        assert arrivals(scheduler, WORKLOADS[kind]()) == reference, scheduler
