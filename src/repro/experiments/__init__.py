"""The paper's experiments: one declaration per table/figure.

- Experiment 1 (blocking): :data:`exp1.figure8`, :data:`exp1.table2`,
  :data:`exp1.figure9`, :data:`exp1.table3`, :data:`exp1.figure10`,
  :data:`exp1.figure11`.
- Experiment 2 (hot set): :data:`exp2.table4`, :data:`exp2.figure12`.
- Experiment 3 (sensitivity): :data:`exp3.figure13`, :data:`exp3.table5`.

Each is a :class:`~repro.experiments.common.Figure` (a grid of measured
cells) or a :class:`~repro.experiments.common.DerivedFigure` (Fig. 10
from Table 3, Table 5 from Fig. 13); :func:`figures` lists all ten in
paper order.  Calling one runs it: it takes a
:class:`~repro.experiments.common.RunScale` (``QUICK`` by default;
``PAPER`` for the full 2,000,000-clock horizon), a seed, an optional
runner and parameter overrides, and returns an
:class:`~repro.experiments.common.ExperimentOutput`.
"""

from repro._facade import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "C2PLM_MPL_CANDIDATES": "repro.experiments.common",
    "ExperimentOutput": "repro.experiments.common",
    "PAPER": "repro.experiments.common",
    "QUICK": "repro.experiments.common",
    "RunScale": "repro.experiments.common",
    "SMOKE": "repro.experiments.common",
    "exp1": "repro.experiments.exp1",
    "exp2": "repro.experiments.exp2",
    "exp3": "repro.experiments.exp3",
    "figures": "repro.experiments.common",
    "scale_from_env": "repro.experiments.common",
})
