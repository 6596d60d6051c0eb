"""Full trace streams pinned by digest.

The result goldens (``tests/schedulers/paper_golden.json``) pin what a
run computes; these pin the order in which it happened.  Every record
of a traced run -- every ``node.queue`` depth change, every CN slice,
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
        "12dde4747e306e15122ac1847230ed365b511963df10b5327c46ae533d1323b1"
    ),
    "GOW-exp2-dd4": (
        "0584846e203bbb731475f2f04e4845bbd6c62bff197cca87e5253c108f0aef24"
    ),
    "GOW-exp1-dd1": (
        "ea917bb4f00cb6bd02be3a5639db5a97b62747cd6be370851524e739106cc3a0"
    ),
    "LOW-exp1-dd1": (
        "63901f35e400df28f9ac5dc90a33b4c2d56db99e73c0a3881d026853a7d51b0b"
    ),
    "LOW-LB-exp2-dd2": (
        "5ace8dd572942a1c0ac9ef2d428125b4fe590efeb67ebc739ea72a53ea714894"
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
