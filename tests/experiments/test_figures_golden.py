"""Every table and figure of the paper, pinned at a micro scale.

``figures_golden.json`` holds the full :class:`ExperimentOutput` --
id, title, headers, rows and paper reference -- of each figure called
with its default arguments and with the argument sets that
``benchmarks/`` and ``perfbench/`` pass.  The figures run at
:data:`MICRO` (a 20 s horizon, 2 s warm-up, two bisection steps), so
the whole file takes a few seconds while still exercising every cell
kind: fixed-rate runs, lockstep bisections, the C2PL+M search and the
derived speedup and degradation tables.

Rows are compared with ``==``: exactly on the Python version that
recorded the file, and with floats rounded to 9 significant digits on
any other (``sum()`` over floats changed in Python 3.12).  Re-record
(run this file as a script) only for a deliberate change to what a
figure reports.
"""

import json
import math
import pathlib
import sys

import pytest

from repro.experiments import exp1, exp2, exp3
from repro.experiments.common import RunScale
from repro.runner import ParallelRunner

GOLDEN = pathlib.Path(__file__).with_name("figures_golden.json")

#: a 20 s horizon with a 2 s warm-up and two bisection steps
MICRO = RunScale(
    "micro", duration_ms=20_000.0, warmup_ms=2_000.0, bisect_iterations=2
)

#: (case name, module, figure, keyword arguments); ``runner`` marks
#: the call perfbench makes through a serial runner
CASES = (
    ("fig8", exp1, "figure8", {}),
    ("table2", exp1, "table2", {}),
    ("fig9", exp1, "figure9", {}),
    ("table3", exp1, "table3", {}),
    ("fig10", exp1, "figure10", {}),
    ("fig11", exp1, "figure11", {}),
    ("table4", exp2, "table4", {}),
    ("fig12", exp2, "figure12", {}),
    ("fig13", exp3, "figure13", {}),
    ("table5", exp3, "table5", {}),
    # benchmarks/test_<id>.py
    ("bench-fig8", exp1, "figure8", {"rates": (0.2, 0.6, 1.0, 1.2)}),
    ("bench-table2", exp1, "table2", {"file_counts": (8, 16, 32)}),
    ("bench-fig9", exp1, "figure9", {"dds": (1, 2, 8)}),
    ("bench-table3", exp1, "table3",
     {"dds": (1, 4), "mpl_candidates": (4, 8, 16)}),
    ("bench-fig10", exp1, "figure10",
     {"dds": (1, 4, 8), "mpl_candidates": (4, 8, 16)}),
    ("bench-fig11", exp1, "figure11", {"rates": (0.4, 1.2), "dd": 4}),
    ("bench-table4", exp2, "table4", {"dds": (1, 4)}),
    ("bench-fig12", exp2, "figure12", {"dds": (1, 4)}),
    ("bench-fig13", exp3, "figure13",
     {"sigmas": (0.0, 1.0, 10.0), "dds": (1, 4)}),
    ("bench-table5", exp3, "table5", {"dds": (1, 4)}),
    # perfbench/workloads.py (fig9-bisect)
    ("perfbench-fig9", exp1, "figure9",
     {"seed": 1, "schedulers": ("NODC", "OPT"), "dds": (8,),
      "runner": True}),
    # the remaining parameters, away from their defaults
    ("fig13-no-floor", exp3, "figure13",
     {"schedulers": ("LOW", "C2PL"), "sigmas": (0.5,), "dds": (2,),
      "num_files": 32, "include_c2pl_floor": False}),
    ("table3-rate", exp1, "table3",
     {"dds": (2,), "num_files": 8, "rate": 0.8, "mpl_candidates": (2,)}),
    ("table4-rate", exp2, "table4",
     {"schedulers": ("LOW", "C2PL"), "dds": (2,), "rate": 0.9}),
    ("fig12-rate", exp2, "figure12",
     {"schedulers": ("GOW",), "dds": (2, 4), "rate": 0.8}),
    ("fig11-files", exp1, "figure11",
     {"schedulers": ("ASL",), "rates": (0.6,), "dd": 2, "num_files": 8}),
)


def output_of(module, name, kwargs, tmp_dir):
    kwargs = dict(kwargs)
    if kwargs.pop("runner", False):
        kwargs["runner"] = ParallelRunner(
            pool_size=1, runs_dir=tmp_dir, progress=None
        )
    output = getattr(module, name)(scale=MICRO, **kwargs)
    return {
        "experiment_id": output.experiment_id,
        "title": output.title,
        "headers": list(output.headers),
        "rows": [list(row) for row in output.rows],
        "paper_reference": output.paper_reference,
    }


def comparable(value, exact):
    """NaN as a string (NaN != NaN); floats rounded unless ``exact``."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return value if exact else float(f"{value:.9g}")
    if isinstance(value, (list, tuple)):
        return [comparable(item, exact) for item in value]
    if isinstance(value, dict):
        return {key: comparable(item, exact) for key, item in value.items()}
    return value


def python_version():
    return "{}.{}".format(*sys.version_info[:2])


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize(
    "case, module, name, kwargs", CASES, ids=[case[0] for case in CASES]
)
def test_output_matches_the_recorded_golden(
    golden, case, module, name, kwargs, tmp_path
):
    exact = golden["python"] == python_version()
    output = output_of(module, name, kwargs, tmp_path)
    recorded = golden["outputs"][case]
    assert comparable(output, exact) == comparable(recorded, exact)


def test_every_case_is_recorded(golden):
    assert sorted(golden["outputs"]) == sorted(case[0] for case in CASES)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = {
            case: output_of(module, name, kwargs, pathlib.Path(tmp))
            for case, module, name, kwargs in CASES
        }
    GOLDEN.write_text(json.dumps(
        {"python": python_version(), "outputs": outputs},
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {GOLDEN}")
