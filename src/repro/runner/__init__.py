"""Parallel run orchestration: specs, cache, workers and manifests.

The paper's tables each need dozens of independent simulation runs;
this package executes them across worker processes and memoises every
completed run on disk, so repeated sweeps and bisections reuse prior
work.  See ``docs/RUNNER.md`` for the cache and manifest layout.

Public surface:

- :class:`RunSpec` / :class:`WorkloadSpec` -- declarative run inputs.
- :class:`ResultCache` -- content-addressed result store (with
  ``stats``/``gc`` maintenance for long-lived caches).
- :class:`ParallelRunner` -- batch orchestrator (dispatch + cache +
  manifest, plus live telemetry, stall detection and crash retry); a
  batch runs in-process or on a pool of long-lived worker processes,
  each of which can be killed alone (:mod:`repro.runner.pool`).
- :class:`RunRegistry` -- persistent index of every executed batch.
- :func:`execute_spec` -- one spec, inline, no orchestration.
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CACHE_FORMAT_VERSION": "repro.runner.spec",
    "JobOutcome": "repro.runner.pool",
    "ParallelRunner": "repro.runner.runner",
    "REGISTRY_FILENAME": "repro.runner.registry",
    "ResultCache": "repro.runner.cache",
    "RunEvent": "repro.runner.runner",
    "RunRegistry": "repro.runner.registry",
    "RunSpec": "repro.runner.spec",
    "WorkerTaskError": "repro.runner.runner",
    "WorkloadSpec": "repro.runner.spec",
    "execute_spec": "repro.runner.worker",
    "print_progress": "repro.runner.runner",
    "register_workload": "repro.runner.spec",
    "spec_digest": "repro.runner.registry",
    "workload_kinds": "repro.runner.spec",
})
