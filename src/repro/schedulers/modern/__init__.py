"""Modern scheduler families, listed alongside the paper's line-up.

Three post-1991 policies, each an entry of the ``modern`` family in
:data:`repro.core.registry.ROSTER`:

``DGCC``
    Dependency-graph batch execution (arXiv:1503.03642): seal admitted
    batches, compile declared access sets into dependency graphs, run
    the conflict-free components in parallel.
``CAR``
    Conflict-aware reordering (arXiv:1810.01997): greedy conflict-graph
    partitioning of the ready set into serial execution queues, with
    contention-triggered re-partition.
``PRED``
    Conflict-prediction admission (arXiv:2409.01675): learn per-file
    conflict rates online and defer admissions whose declared sets look
    hot.

The registry imports a family's module the first time a run names it
(including the parameterised forms ``DGCC(B=n)``, ``CAR(Q=n)`` and
``PRED(T=x)``), so naming DGCC loads neither CAR nor PRED.  The class
names below resolve on first use (:mod:`repro._facade`).
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ConflictPredictScheduler": "repro.schedulers.modern.predict",
    "ConflictReorderScheduler": "repro.schedulers.modern.reorder",
    "DGCCScheduler": "repro.schedulers.modern.dgcc",
    "DeclaredOrderScheduler": "repro.schedulers.modern.base",
})
