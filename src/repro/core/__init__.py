"""The paper's contribution: WTPG-based batch-transaction schedulers.

- :class:`WTPG` -- the Weighted Transaction-Precedence Graph (Section 3.1).
- :mod:`repro.core.chain` -- chain-form testing and the optimal
  serializable order for GOW.
- :class:`Scheduler` and the six policies: :class:`GOWScheduler`,
  :class:`LOWScheduler`, :class:`ASLScheduler`, :class:`C2PLScheduler`,
  :class:`OPTScheduler`, :class:`NODCScheduler`.
- :class:`LockTable` -- file-granule S/X locks.
- :class:`SerializabilityAuditor` -- history checking for tests.
- :func:`create` / :data:`PAPER_SCHEDULERS` -- the scheduler registry,
  one table of every scheduler name (:mod:`repro.core.registry`).

The names below are imported from their defining modules on first use
(:mod:`repro._facade`), so importing this package, or any module under
it, loads no scheduler policy; :func:`create` loads the one a run names.
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ASLScheduler": "repro.core.asl",
    "C2PLScheduler": "repro.core.c2pl",
    "ConflictEdge": "repro.core.wtpg",
    "Decision": "repro.core.base",
    "GOWScheduler": "repro.core.gow",
    "LOWLBScheduler": "repro.core.lowlb",
    "LOWScheduler": "repro.core.low",
    "LockError": "repro.core.locks",
    "LockTable": "repro.core.locks",
    "NODCScheduler": "repro.core.nodc",
    "OPTScheduler": "repro.core.opt",
    "PAPER_SCHEDULERS": "repro.core.registry",
    "ResourceAwareWTPG": "repro.core.lowlb",
    "Scheduler": "repro.core.base",
    "SchedulerStats": "repro.core.base",
    "SerializabilityAuditor": "repro.core.audit",
    "TransactionAborted": "repro.core.base",
    "TwoPLScheduler": "repro.core.twopl",
    "WTPG": "repro.core.wtpg",
    "WTPGSchedulerMixin": "repro.core.base",
    "available": "repro.core.registry",
    "create": "repro.core.registry",
    "register": "repro.core.registry",
})
