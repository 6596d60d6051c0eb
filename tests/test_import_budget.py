"""Import budget: a fresh interpreter loads only what a run uses.

Every run in a new interpreter (the benchmark's workers, a worker of
the pool under the ``spawn`` start method) pays for each module it
imports before the first event is simulated.  These tests pin what the
serial sweep path and the pool's worker entry may load: optional
features (telemetry, trace export, the wall-clock profiler, analysis),
the worker pool and its stdlib machinery (``multiprocessing``) stay out
until a run asks for them, and ``asyncio``, ``concurrent.futures`` and
``ssl`` stay out everywhere.  Scheduler policies load per run: setup
loads none, and a run adds the module of the scheduler it names and
nothing else.
"""

import json
import subprocess
import sys
import typing

from tests import child_env

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
    "repro.runner.pool",
    "repro.sim.replication",
    "repro.experiments.exp2",
    "repro.experiments.exp3",
)

#: the scheduler policies and what only they use; setup loads none
POLICIES = tuple(
    f"repro.core.{name}"
    for name in ("asl", "audit", "c2pl", "chain", "gow", "low", "lowlb",
                 "nodc", "opt", "twopl", "wtpg")
) + ("repro.schedulers.modern",)

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

DGCC_RUN = """
import dataclasses
setup = set(sys.modules)
dgcc = dataclasses.replace(spec, scheduler="DGCC")
[result] = runner.run_batch([dgcc], label="budget")
assert result is not None and result.completed > 0
report["new"] = sorted(set(sys.modules) - setup)
"""

WORKER_ENTRY = """
from repro.runner import pool


class OneTask:
    # one task in, then EOF; the reply is kept
    def __init__(self, task):
        self.tasks, self.replies = [task], []

    def recv(self):
        if not self.tasks:
            raise EOFError
        return self.tasks.pop()

    def send(self, reply):
        self.replies.append(reply)


conn = OneTask({"spec": spec, "traces_dir": None, "series_dir": None,
                "telemetry": None})
pool.serve(conn)
[(ok, result, error)] = conn.replies
assert ok and result.completed > 0, error
"""

#: what the worker entry itself needs
WORKER_MODULES = ("multiprocessing", "repro.runner.pool")


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
        [sys.executable, "-c", script], env=child_env(),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout.splitlines()[-1])


def matching(loaded: list, prefixes: typing.Iterable[str]) -> list:
    """The modules in ``loaded`` that are, or lie under, a prefix."""
    prefixes = tuple(prefixes)
    return sorted(
        name for name in loaded
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    )


def over_budget(loaded: list, allowed: tuple = ()) -> list:
    return matching(loaded, (f for f in FORBIDDEN if f not in allowed))


def test_setup_stays_within_budget():
    assert over_budget(loaded_after(SETUP)["loaded"]) == []


def test_setup_loads_no_scheduler_policy():
    assert matching(loaded_after(SETUP)["loaded"], POLICIES) == []


def test_serial_run_imports_nothing_new():
    # nothing but the policy of the scheduler the run names
    report = loaded_after(SETUP + SERIAL_RUN)
    assert report["new"] == ["repro.core.nodc"]
    assert over_budget(report["loaded"]) == []


def test_dgcc_run_loads_its_family_alone():
    report = loaded_after(SETUP + DGCC_RUN)
    assert report["new"] == [
        "repro.schedulers",
        "repro.schedulers.modern",
        "repro.schedulers.modern.base",
        "repro.schedulers.modern.dgcc",
    ]
    assert matching(
        report["loaded"], ("repro.core.wtpg", "repro.core.chain")
    ) == []
    assert over_budget(report["loaded"]) == []


def test_worker_entry_stays_within_budget():
    loaded = loaded_after(SETUP + WORKER_ENTRY)["loaded"]
    assert "repro.runner.pool" in loaded
    assert over_budget(loaded, allowed=WORKER_MODULES) == []


def test_listing_the_roster_loads_no_policy():
    loaded = loaded_after(
        "from repro.cli import main\n"
        "from repro.core.registry import entries, grid_schedulers\n"
        "assert main(['schedulers']) == 0\n"
        "assert len(entries()) == 12 and 'DGCC' in grid_schedulers()\n"
    )["loaded"]
    assert "repro.cli" in loaded
    assert matching(loaded, POLICIES) == []
