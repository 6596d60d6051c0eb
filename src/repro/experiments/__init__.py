"""The paper's experiments: one function per table/figure.

- Experiment 1 (blocking): :func:`exp1.figure8`, :func:`exp1.table2`,
  :func:`exp1.figure9`, :func:`exp1.table3`, :func:`exp1.figure10`,
  :func:`exp1.figure11`.
- Experiment 2 (hot set): :func:`exp2.table4`, :func:`exp2.figure12`.
- Experiment 3 (sensitivity): :func:`exp3.figure13`, :func:`exp3.table5`.

Every function takes a :class:`~repro.experiments.common.RunScale`
(``QUICK`` by default; ``PAPER`` for the full 2,000,000-clock horizon)
and returns an :class:`~repro.experiments.common.ExperimentOutput`.
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "C2PLM_MPL_CANDIDATES": "repro.experiments.common",
    "ExperimentOutput": "repro.experiments.common",
    "PAPER": "repro.experiments.common",
    "QUICK": "repro.experiments.common",
    "RunScale": "repro.experiments.common",
    "SCHEDULERS": "repro.experiments.common",
    "SMOKE": "repro.experiments.common",
    "exp1": "repro.experiments.exp1",
    "exp2": "repro.experiments.exp2",
    "exp3": "repro.experiments.exp3",
    "scale_from_env": "repro.experiments.common",
})
