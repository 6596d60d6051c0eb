"""Import budget: a fresh interpreter loads only what a run uses.

Every run the runner starts in a new interpreter (the benchmark's
workers, the ``asyncio`` backend's one child per run) pays for each
module it imports before the first event is simulated.  These tests pin
what the serial sweep path and the subprocess worker entry may load:
optional features (telemetry, trace export, the wall-clock profiler,
analysis), the pool backends and their stdlib machinery (``asyncio``,
``multiprocessing``, ``concurrent.futures``, ``ssl``) stay out until a
run asks for them.
"""

import json
import subprocess
import sys

from repro.runner.backends.base import child_environment

#: never imported by setup, by a serial run, or by the worker entry
FORBIDDEN = (
    "asyncio",
    "multiprocessing",
    "concurrent.futures",
    "ssl",
    "repro.obs.attrib",
    "repro.obs.export",
    "repro.obs.profile",
    "repro.obs.telemetry",
    "repro.analysis",
    "repro.runner.backends.asyncio_subprocess",
    "repro.runner.backends.local",
    "repro.sim.replication",
    "repro.experiments.exp2",
    "repro.experiments.exp3",
)

#: what the benchmark's workload module and a serial cached runner import
SETUP = """
import tempfile

from repro.experiments import exp1
from repro.experiments.common import QUICK
from repro.machine.config import MachineConfig
from repro.runner.cache import ResultCache
from repro.runner.runner import ParallelRunner
from repro.runner.spec import RunSpec, WorkloadSpec

root = tempfile.mkdtemp()
runner = ParallelRunner(
    cache=ResultCache(root + "/cache"), runs_dir=root + "/runs",
    progress=None, backend="serial",
)
spec = RunSpec(
    scheduler="NODC", workload=WorkloadSpec.make("exp1", 0.4),
    config=MachineConfig(), seed=0, duration_ms=15_000.0, warmup_ms=0.0,
)
"""

SERIAL_RUN = """
setup = set(sys.modules)
[result] = runner.run_batch([spec], label="budget")
assert result is not None and result.completed > 0
report["new"] = sorted(set(sys.modules) - setup)
"""

WORKER_ENTRY = """
import io

from repro.runner.backends import subproc
from repro.runner.backends.task import sweep_task

reply = io.StringIO()
subproc.main(io.StringIO(json.dumps(sweep_task(0, spec))), reply)
assert json.loads(reply.getvalue().lstrip(subproc.RESULT_FRAME))["ok"]
"""


def loaded_after(body: str) -> dict:
    """Run ``body`` in a fresh interpreter; ``loaded`` lists the modules
    it imported (what the interpreter held at start-up, such as a
    coverage hook, is not the package's doing)."""
    script = (
        "import json, sys\nstartup = set(sys.modules)\nreport = {}\n"
        + body
        + "\nreport['loaded'] = sorted(set(sys.modules) - startup)"
        "\nprint(json.dumps(report))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=child_environment(),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout.splitlines()[-1])


def over_budget(loaded: list) -> list:
    return sorted(
        name for name in loaded
        if any(name == f or name.startswith(f + ".") for f in FORBIDDEN)
    )


def test_setup_stays_within_budget():
    assert over_budget(loaded_after(SETUP)["loaded"]) == []


def test_serial_run_imports_nothing_new():
    report = loaded_after(SETUP + SERIAL_RUN)
    assert report["new"] == []
    assert over_budget(report["loaded"]) == []


def test_worker_entry_stays_within_budget():
    assert over_budget(loaded_after(SETUP + WORKER_ENTRY)["loaded"]) == []
