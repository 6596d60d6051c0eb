"""Whole runs replay exactly under ``call_at``'s same-instant batches.

The DPN's completion timers, its start hops, the step relays, a traced
CN's ``cn.exec_start`` records and every zero-delay trigger
(``succeed()``/``fail()`` at now, a process start or relay) go through
:meth:`Environment.call_at`, which packs the calls due at one instant
into one heap entry.  The reference kernel here schedules one
:class:`Event` per call instead -- the order ``call_at`` promises to
reproduce.  Each cell runs under both, traced and sampled, and every
trace record, every sampled point and the result must agree.
"""

import pytest

from repro.des import Environment, Event
from repro.machine import MachineConfig
from repro.obs import MemoryRecorder
from repro.obs.timeseries import TimeSeriesSampler
from repro.sim import run_simulation
from repro.txn import experiment1_workload, experiment2_workload


def reference_call_at(self, when, fn, arg):
    """``call_at`` as one event per call."""
    event = Event(self)
    event.callbacks.append(lambda _event: fn(arg))
    event.succeed(at=when)


#: cell name -> (scheduler, workload, rate, DD).  At DD = 8 every node
#: holds every file, so a step's cohorts finish together; at DD = 4 the
#: exp1 files sit on different node sets and one instant's batch mixes
#: groups; at DD = 1 and 2 mostly start hops and relays batch.
CELLS = {
    "OPT-exp1-dd8": ("OPT", "exp1", 1.0, 8),
    "NODC-exp1-dd4": ("NODC", "exp1", 1.2, 4),
    "GOW-exp1-dd1": ("GOW", "exp1", 0.8, 1),
    "LOW-LB-exp2-dd2": ("LOW-LB", "exp2", 1.0, 2),
}


def run_cell(scheduler, workload, rate, dd):
    if workload == "exp1":
        config = MachineConfig(dd=dd, num_files=16)
        spec = experiment1_workload(rate, num_files=16)
    else:
        config = MachineConfig(dd=dd)
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
def test_batched_calls_replay_one_event_per_call(cell, monkeypatch):
    batched = run_cell(*CELLS[cell])
    with monkeypatch.context() as patch:
        patch.setattr(Environment, "call_at", reference_call_at)
        reference = run_cell(*CELLS[cell])
    records, series, result = batched
    ref_records, ref_series, ref_result = reference
    assert len(records) > 5_000, f"{cell}: trace too small to pin ties"
    assert len(records) == len(ref_records)
    for index, (got, want) in enumerate(zip(records, ref_records)):
        assert got == want, f"{cell}: record {index} differs"
    assert series == ref_series
    assert result == ref_result
