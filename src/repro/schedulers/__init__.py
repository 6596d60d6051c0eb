"""Scheduler families beyond the paper's six.

The paper's schedulers live in :mod:`repro.core` (they *are* the paper's
contribution); this package collects the policies added on top:

- :mod:`repro.schedulers.modern` -- three post-1991 scheduler families
  (dependency-graph batch execution, conflict-aware reordering and
  conflict-prediction admission) listed alongside the paper's
  line-up in :mod:`repro.core.registry`.
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ConflictPredictScheduler": "repro.schedulers.modern.predict",
    "ConflictReorderScheduler": "repro.schedulers.modern.reorder",
    "DGCCScheduler": "repro.schedulers.modern.dgcc",
})
