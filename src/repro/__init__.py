"""repro: reproduction of Ohmori, Kitsuregawa & Tanaka (ICDE 1991),
"Scheduling Batch Transactions on Shared-Nothing Parallel Database
Machines: Effects of Concurrency and Parallelism".

A discrete-event simulation study of concurrency-control schedulers for
bulk-update batch transactions.  Quickstart::

    from repro import MachineConfig, run_simulation, experiment1_workload

    result = run_simulation(
        "LOW", experiment1_workload(arrival_rate_tps=1.0),
        MachineConfig(dd=4), duration_ms=400_000,
    )
    print(result.scheduler, result.throughput_tps, result.mean_response_s)

Packages:

- :mod:`repro.des` -- the discrete-event kernel.
- :mod:`repro.machine` -- the shared-nothing machine model.
- :mod:`repro.txn` -- batch transactions, patterns, workloads.
- :mod:`repro.core` -- the WTPG and the six schedulers (the paper's
  contribution).
- :mod:`repro.schedulers` -- scheduler families beyond the paper's six
  (the modern arena line-up: DGCC, CAR, PRED).
- :mod:`repro.obs` -- always-available tracing (recorders, exporters).
- :mod:`repro.sim` -- simulation runs, metrics, operating-point search.
- :mod:`repro.runner` -- parallel batch execution with result caching.
- :mod:`repro.experiments` -- one declaration per paper table/figure.
- :mod:`repro.analysis` -- text-table / CSV reporting.

The names below are imported from their defining modules on first use
(:mod:`repro._facade`), so ``import repro`` loads none of the packages.
"""

from repro._facade import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "BatchTransaction": "repro.txn.transaction",
    "DataPlacement": "repro.machine.placement",
    "MachineConfig": "repro.machine.config",
    "MemoryRecorder": "repro.obs.recorder",
    "NullRecorder": "repro.obs.recorder",
    "PAPER_SCHEDULERS": "repro.core.registry",
    "PATTERN_1": "repro.txn.pattern",
    "PATTERN_2": "repro.txn.pattern",
    "ParallelRunner": "repro.runner.runner",
    "Pattern": "repro.txn.pattern",
    "ResultCache": "repro.runner.cache",
    "RunSpec": "repro.runner.spec",
    "SerializabilityAuditor": "repro.core.audit",
    "SharedNothingMachine": "repro.machine.machine",
    "Simulation": "repro.sim.simulation",
    "SimulationResult": "repro.sim.metrics",
    "TraceRecorder": "repro.obs.recorder",
    "WTPG": "repro.core.wtpg",
    "Workload": "repro.txn.workload",
    "WorkloadSpec": "repro.runner.spec",
    "available": "repro.core.registry",
    "create": "repro.core.registry",
    "experiment1_workload": "repro.txn.workload",
    "experiment2_workload": "repro.txn.workload",
    "experiment3_workload": "repro.txn.workload",
    "render_summary": "repro.obs.export",
    "run_simulation": "repro.sim.simulation",
    "write_chrome_trace": "repro.obs.export",
    "write_jsonl": "repro.obs.export",
})
__all__ += ["__version__"]
