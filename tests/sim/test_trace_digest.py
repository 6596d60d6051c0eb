"""Full trace streams pinned by digest.

The result goldens (``tests/schedulers/paper_golden.json``) pin what a
run computes; these pin the order in which it happened.  Every record
of a traced run -- every quantum's ``node.queue``, every CN slice,
every step boundary -- is folded into one SHA-256, so a change to the
kernel or the machine model that reorders two same-instant events
fails here even when the aggregate results happen to agree.

Floats are hashed at 12 significant digits: enough to separate any two
distinct simulated instants, while staying stable against last-bit
summation differences across Python versions.  Re-record (only for a
deliberate model change) by running this file as a script and pasting
the printed digests into ``DIGESTS``.
"""

import hashlib
import json

import pytest

from repro.machine import MachineConfig
from repro.obs import MemoryRecorder
from repro.sim import run_simulation
from repro.txn import experiment1_workload, experiment2_workload

#: cell name -> (scheduler, workload, rate, DD)
CELLS = {
    "OPT-exp1-dd8": ("OPT", "exp1", 1.0, 8),
    "GOW-exp2-dd4": ("GOW", "exp2", 1.2, 4),
    # decision-local GOW/LOW: several chain components per GOW decision,
    # and E(q) (``sched.e_eval`` carries it) on plain and backlog-inflated
    # T0 weights
    "GOW-exp1-dd1": ("GOW", "exp1", 0.8, 1),
    "LOW-exp1-dd1": ("LOW", "exp1", 0.8, 1),
    "LOW-LB-exp2-dd2": ("LOW-LB", "exp2", 1.0, 2),
}

DIGESTS = {
    "OPT-exp1-dd8": (
        "cbf271ae652f119818c414b23874fbb64371164dab7e8fa2909c8acb3537e174"
    ),
    "GOW-exp2-dd4": (
        "5ca4552320733f1e93d92780b9989162f78c80595f2ea405bf7651fe8d75fc28"
    ),
    "GOW-exp1-dd1": (
        "f7cc9b5d9d3b21dc593385007440a74a4cccf6f5cfacffd945445f79b8228217"
    ),
    "LOW-exp1-dd1": (
        "508e3aac5c88e31738b96c09cb4011f9a35968760bea4d5a0fd05ff60efd5b24"
    ),
    "LOW-LB-exp2-dd2": (
        "ee036d7efe3eca9f7f76d158ff607a0debedf84f878ba433787d26d38c0fe6a9"
    ),
}


def _canonical(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def trace_digest(scheduler, workload, rate, dd):
    """SHA-256 of the whole trace stream of one 200 s cell."""
    if workload == "exp1":
        config = MachineConfig(dd=dd, num_files=16)
        spec = experiment1_workload(rate, num_files=16)
    else:
        config = MachineConfig(dd=dd)
        spec = experiment2_workload(rate)
    recorder = MemoryRecorder()
    run_simulation(
        scheduler, spec, config, seed=3,
        duration_ms=200_000.0, warmup_ms=10_000.0, recorder=recorder,
    )
    digest = hashlib.sha256()
    for event in recorder.events:
        line = json.dumps(_canonical(event.to_record()), sort_keys=True)
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest(), len(recorder.events)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_trace_stream_matches_the_recorded_digest(cell):
    digest, records = trace_digest(*CELLS[cell])
    assert records > 10_000, f"{cell}: trace too small to pin ties"
    assert digest == DIGESTS[cell], cell


if __name__ == "__main__":
    for name in sorted(CELLS):
        digest, records = trace_digest(*CELLS[name])
        print(f"    {name!r}: {digest!r},  # {records} records")
