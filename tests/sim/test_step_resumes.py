"""A step costs its transaction one process resume.

The CN message out, the DD-way scan and the CN message in are chained by
callbacks into one event, so a transaction's process resumes once per
step, plus once each for its start and its startup and commit slices.
NODC decides without CN slices or waits, so on an NODC cell those are
all its resumes.  The zero-delay triggers join their instant's call
batch, which cuts the cell's heap entries but none of its resumes.
"""

import collections

from repro.des.process import Process
from repro.machine import MachineConfig
from repro.obs import MemoryRecorder
from repro.sim.simulation import Simulation
from repro.txn import experiment1_workload

#: heap entries the same cell fired while each zero-delay trigger (a
#: ``succeed()`` at now, a process start or relay) took one of its own,
#: with three resumes per step and with one alike
HEAP_ENTRY_PER_TRIGGER_EVENTS = 1549
#: heap entries it fires now that those triggers join their instant's
#: call batch
BATCHED_EVENTS = 1121
#: process resumes in the cell, the same under both
RESUMES = 387


def run_cell(monkeypatch):
    """The NODC DD = 8 cell: the run, its trace and resumes by process."""
    resumes = collections.Counter()
    resume = Process._resume

    def counted(process, event):
        resumes[process.name] += 1
        return resume(process, event)

    monkeypatch.setattr(Process, "_resume", counted)
    recorder = MemoryRecorder()
    simulation = Simulation(
        MachineConfig(dd=8, num_files=16),
        experiment1_workload(1.0, num_files=16),
        scheduler="NODC", seed=1,
        duration_ms=60_000.0, warmup_ms=10_000.0, recorder=recorder,
    )
    result = simulation.run()
    records = [event.to_record() for event in recorder.events]
    return simulation, result, records, resumes


def test_nodc_attempt_resumes_once_per_step(monkeypatch):
    simulation, result, records, resumes = run_cell(monkeypatch)
    committed = [
        record["txn"] for record in records if record["kind"] == "txn.commit"
    ]
    steps = {
        record["txn"]: record["step"] + 1 for record in records
        if record["kind"] == "txn.step_end"
    }
    assert result.completed > 30 and result.restarts == 0
    assert len(committed) >= result.completed
    for txn_id in committed:
        # start, startup slice, one per step, commit slice
        assert steps[txn_id] == 4
        assert resumes[f"txn-{txn_id}"] == 1 + 1 + steps[txn_id] + 1


def test_batched_triggers_cut_heap_entries_not_resumes(monkeypatch):
    simulation, _result, _records, resumes = run_cell(monkeypatch)
    assert sum(resumes.values()) == RESUMES
    assert simulation.env.events_processed == BATCHED_EVENTS
