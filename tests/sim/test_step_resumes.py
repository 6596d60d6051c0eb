"""A step costs its transaction one process resume.

The CN message out, the DD-way scan and the CN message in are chained by
callbacks into one event, so a transaction's process resumes once per
step, plus once each for its bootstrap and its startup and commit
slices.  NODC decides without CN slices or waits, so on an NODC cell
those are all its resumes.
"""

import collections

from repro.des.process import Process
from repro.machine import MachineConfig
from repro.obs import MemoryRecorder
from repro.sim.simulation import Simulation
from repro.txn import experiment1_workload

#: events the same cell fired when a step resumed its process three
#: times (send slice, scan, receive slice)
THREE_RESUME_EVENTS = 1549


def test_nodc_attempt_resumes_once_per_step(monkeypatch):
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
        # bootstrap, startup slice, one per step, commit slice
        assert steps[txn_id] == 4
        assert resumes[f"txn-{txn_id}"] == 1 + 1 + steps[txn_id] + 1
    assert simulation.env.events_processed <= THREE_RESUME_EVENTS
