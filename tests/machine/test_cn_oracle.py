"""The callback-driven control node against the ``Resource`` oracle.

``ControlNode`` serves each CN slice as one event fired at its end,
pushed when the CPU takes the slice (in ``request`` on an idle CPU, in
the previous slice's ``_finish`` otherwise) with no grant hop;
``reference_cn`` grants a ``Request`` event per slice, whose callback
starts the slice's ``Timeout``.  Whole runs under either, traced and
sampled, must agree on every trace record, every sampled point and the
result (``==``); so must the unit scenarios below, which also pin the
expected values.
"""

import math

import pytest

import repro.machine.machine as machine_module
from repro.des import Environment
from repro.machine import ControlNode, MachineConfig
from repro.obs import MemoryRecorder
from repro.obs.timeseries import TimeSeriesSampler
from repro.sim import run_simulation
from repro.txn import experiment1_workload, experiment2_workload

from tests.machine.reference_cn import ReferenceControlNode

#: cell name -> (scheduler, workload, rate, machine config)
CELLS = {
    # CC-heavy: chaintime/toptime slices queue up to ~50 deep
    "GOW-exp2-dd1": ("GOW", "exp2", 1.0, MachineConfig(dd=1)),
    # admission-order scheduler held at MPL 8
    "DGCC-exp1-mpl8": (
        "DGCC", "exp1", 0.5, MachineConfig(dd=1, mpl=8, num_files=16),
    ),
    # validation restarts, lockstep DD = 8 steps
    "OPT-exp1-dd8": ("OPT", "exp1", 1.0, MachineConfig(dd=8, num_files=16)),
    # deadlock victims restart
    "2PL-exp2-dd1": ("2PL", "exp2", 1.0, MachineConfig(dd=1)),
}


def run_cell(scheduler, workload, rate, config):
    if workload == "exp1":
        spec = experiment1_workload(rate, num_files=config.num_files)
    else:
        spec = experiment2_workload(rate)
    recorder = MemoryRecorder()
    sampler = TimeSeriesSampler(interval_ms=1_000.0)
    result = run_simulation(
        scheduler, spec, config, seed=5,
        duration_ms=120_000.0, warmup_ms=10_000.0,
        recorder=recorder, sampler=sampler,
    )
    records = [event.to_record() for event in recorder.events]
    return records, sampler.to_dict(), result.to_dict()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_whole_runs_replay_the_resource_cn(cell, monkeypatch):
    served = run_cell(*CELLS[cell])
    with monkeypatch.context() as patch:
        patch.setattr(machine_module, "ControlNode", ReferenceControlNode)
        reference = run_cell(*CELLS[cell])
    records, series, result = served
    ref_records, ref_series, ref_result = reference
    assert len(records) > 2_500, f"{cell}: trace too small to pin ties"
    depths = [
        record["depth"] for record in records
        if record["kind"] == "res.queue" and record["name"] == "cn.cpu"
    ]
    assert max(depths) > 0, f"{cell}: no CN slice ever waited"
    assert len(records) == len(ref_records)
    for index, (got, want) in enumerate(zip(records, ref_records)):
        assert got == want, f"{cell}: record {index} differs"
    assert series == ref_series
    assert result == ref_result
    if cell.startswith("2PL"):
        assert result["restarts"] > 0


# -- unit scenarios, each run under both CNs --------------------------------

def scenario(cn_class, jobs):
    """Run ``jobs`` -- ``(start_ms, cost_ms, category)`` -- as one process
    each.  Returns what every job saw, the trace records, the CPU's
    booking and busy integral."""
    env = Environment()
    recorder = MemoryRecorder()
    env.trace = recorder
    cn = cn_class(env, MachineConfig())
    seen = []

    def job(index, start, cost, category):
        if start:
            yield env.timeout(start)
        yield from cn.consume(cost, category)
        seen.append((index, "done", env.now))

    for index, (start, cost, category) in enumerate(jobs):
        env.process(job(index, start, cost, category))
    env.run()
    records = [event.to_record() for event in recorder.events]
    return (
        seen, records, dict(cn.cpu_ms_by_category),
        cn.busy.integral(env.now), cn.queue_length,
    )


def both(jobs):
    served = scenario(ControlNode, jobs)
    assert served == scenario(ReferenceControlNode, jobs)
    return served


def test_same_instant_requests_are_served_fifo():
    seen, records, booked, busy, waiting = both(
        [(0.0, 4.0, "a"), (0.0, 1.0, "b"), (0.0, 2.0, "c")]
    )
    assert seen == [(0, "done", 4.0), (1, "done", 5.0), (2, "done", 7.0)]
    starts = [
        (record["t"], record["category"]) for record in records
        if record["kind"] == "cn.exec_start"
    ]
    assert starts == [(0.0, "a"), (4.0, "b"), (5.0, "c")]
    assert booked == {"a": 4.0, "b": 1.0, "c": 2.0}
    assert busy == 7.0
    assert waiting == 0


def test_queue_depth_records():
    # two wait behind the first; one more joins while the second runs.
    # A depth is recorded when a slice joins the line and when one
    # leaves it for the CPU
    _seen, records, *_ = both(
        [(0.0, 3.0, "a"), (0.0, 3.0, "b"), (0.0, 3.0, "c"), (4.0, 1.0, "d")]
    )
    assert [
        (record["t"], record["depth"]) for record in records
        if record["kind"] == "res.queue"
    ] == [(0.0, 1), (0.0, 2), (3.0, 1), (4.0, 2), (6.0, 1), (9.0, 0)]
    assert {record["name"] for record in records
            if record["kind"] == "res.queue"} == {"cn.cpu"}


def test_zero_cost_slice_yields_nothing():
    env = Environment()
    cn = ControlNode(env, MachineConfig())
    assert list(cn.consume(0.0, "free")) == []
    assert env.peek() == math.inf
    assert cn.cpu_ms_by_category == {}
