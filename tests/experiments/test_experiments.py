"""Tests of the experiment definitions (SMOKE scale: plumbing + shape).

Quantitative agreement with the paper lives in the benchmark suite and
EXPERIMENTS.md; these tests verify each table/figure declaration produces
well-formed output and preserves the cheap-to-check orderings.
"""

import math
import pathlib

import pytest

from repro.experiments import (
    ExperimentOutput,
    PAPER,
    QUICK,
    SMOKE,
    figures,
    scale_from_env,
)
from repro.experiments import exp1, exp2, exp3


class TestScales:
    def test_scale_from_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert scale_from_env() is QUICK

    def test_scale_from_env_paper(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert scale_from_env() is PAPER

    def test_scale_from_env_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "huge")
        with pytest.raises(ValueError):
            scale_from_env()

    def test_paper_scale_matches_paper_horizon(self):
        assert PAPER.duration_ms == 2_000_000.0


class TestExperimentOutput:
    def test_column_access(self):
        out = ExperimentOutput("id", "t", ["a", "b"], [[1, 2], [3, 4]])
        assert out.column("b") == [2, 4]
        assert out.as_dict() == {"a": [1, 3], "b": [2, 4]}

    def test_missing_column(self):
        out = ExperimentOutput("id", "t", ["a"], [[1]])
        with pytest.raises(ValueError):
            out.column("zzz")


class TestFigure8:
    def test_shape_and_monotonicity(self):
        out = exp1.figure8(SMOKE, rates=(0.3, 0.9), schedulers=("NODC", "ASL"))
        assert out.headers == ["lambda_tps", "NODC", "ASL"]
        assert len(out.rows) == 2
        nodc = out.column("NODC")
        # response time grows with load
        assert nodc[1] > nodc[0]
        # locking overhead/blocking makes ASL slower than NODC
        assert out.column("ASL")[1] > nodc[1]


class TestTable2:
    def test_throughput_grows_with_files(self):
        out = exp1.table2(SMOKE, schedulers=("ASL",), file_counts=(8, 64))
        asl = out.column("ASL")
        assert asl[1] > asl[0]  # less contention with more files

    def test_headers_include_all_schedulers(self):
        out = exp1.table2(SMOKE, schedulers=("ASL", "C2PL"), file_counts=(8,))
        assert out.headers == ["num_files", "ASL", "C2PL"]


class TestFigure9:
    def test_throughput_grows_with_dd(self):
        out = exp1.figure9(SMOKE, schedulers=("ASL",), dds=(1, 8))
        asl = out.column("ASL")
        assert asl[1] > asl[0]


class TestTable3AndFigure10:
    def test_table3_has_c2plm_column(self):
        out = exp1.table3(SMOKE, dds=(1,), mpl_candidates=(4, 8))
        assert "C2PL+M" in out.headers
        assert len(out.rows) == 1

    def test_figure10_speedups_baseline_is_one(self):
        rt = ExperimentOutput(
            "table3",
            "t",
            ["dd", "ASL", "C2PL+M"],
            [[1, 100.0, 200.0], [4, 25.0, 100.0]],
        )
        speedup = exp1.figure10.derive(rt)
        assert speedup.rows[0][1:] == [1.0, 1.0]
        assert speedup.rows[1][1] == pytest.approx(4.0)
        assert speedup.rows[1][2] == pytest.approx(2.0)

    def test_figure10_handles_nan(self):
        rt = ExperimentOutput(
            "table3", "t", ["dd", "X"], [[1, 100.0], [4, float("nan")]]
        )
        speedup = exp1.figure10.derive(rt)
        assert math.isnan(speedup.rows[1][1])


class TestFigure11:
    def test_speedup_columns(self):
        out = exp1.figure11(SMOKE, schedulers=("ASL",), rates=(0.5,), dd=4)
        assert out.headers == ["lambda_tps", "ASL"]
        assert out.rows[0][1] > 1.0  # declustering helps


class TestTable4:
    def test_rows_cover_both_metrics(self):
        out = exp2.table4(SMOKE, schedulers=("LOW",), dds=(1, 2))
        metrics = out.column("metric")
        assert metrics == [
            "thruput DD=1",
            "thruput DD=2",
            "resp.time DD=1",
            "resp.time DD=2",
        ]

    def test_low_beats_asl_on_hot_set(self):
        """The paper's headline hot-set result at DD = 1."""
        out = exp2.table4(SMOKE, schedulers=("LOW", "ASL"), dds=(1,))
        thruput = out.rows[0]
        assert thruput[1] > thruput[2]  # LOW > ASL


class TestFigure12:
    def test_baseline_speedup_is_one(self):
        out = exp2.figure12(SMOKE, schedulers=("ASL",), dds=(1, 4))
        assert out.rows[0][1] == pytest.approx(1.0)
        assert out.rows[1][1] > 1.0


class TestFigure13AndTable5:
    def test_figure13_headers(self):
        out = exp3.figure13(
            SMOKE,
            schedulers=("GOW", "LOW"),
            sigmas=(0.0,),
            dds=(1,),
            include_c2pl_floor=True,
        )
        assert out.headers == ["sigma", "GOW@DD=1", "LOW@DD=1", "C2PL@DD=1"]

    def test_figure13_default_grid_includes_modern(self):
        out = exp3.figure13(
            SMOKE, sigmas=(0.0,), dds=(1,), include_c2pl_floor=False
        )
        assert out.headers[:3] == ["sigma", "GOW@DD=1", "LOW@DD=1"]
        for name in ("DGCC", "CAR", "PRED"):
            assert f"{name}@DD=1" in out.headers

    def test_table5_from_figure13(self):
        fig = ExperimentOutput(
            "fig13",
            "t",
            ["sigma", "GOW@DD=1", "LOW@DD=1"],
            [[0.0, 0.5, 0.6], [10.0, 0.45, 0.42]],
        )
        out = exp3.table5.derive(fig, dds=(1,))
        assert out.rows[0] == ["GOW", pytest.approx(90.0)]
        assert out.rows[1] == ["LOW", pytest.approx(70.0)]

    def test_table5_requires_both_endpoints(self):
        fig = ExperimentOutput(
            "fig13", "t", ["sigma", "GOW@DD=1", "LOW@DD=1"], [[0.0, 0.5, 0.6]]
        )
        with pytest.raises(ValueError):
            exp3.table5.derive(fig, dds=(1,))


DESIGN = pathlib.Path(__file__).resolve().parents[2] / "DESIGN.md"
DESIGN_HEADER = (
    "| id | Title (at the defaults) | Rows, and the defaults | "
    "Schedulers | Declared as | Bench target |"
)


def design_row(figure):
    """One DESIGN.md index row, read off the declaration."""
    (module, name), = [
        (module.__name__.rsplit(".", 1)[-1], name)
        for module in (exp1, exp2, exp3)
        for name, value in vars(module).items()
        if value is figure
    ]
    defaults = ", ".join(
        f"{key}={value}" for key, value in figure.defaults.items()
    )
    schedulers = ", ".join(figure.default_schedulers())
    source = getattr(figure, "source", None)
    derived = f", from {source.id}" if source is not None else ""
    return (
        f"| {figure.id} | {figure.title.format(**figure.defaults)} | "
        f"`{figure.axis}`; {defaults} | {schedulers} | "
        f"`experiments.{module}.{name}`{derived} | "
        f"`benchmarks/test_{figure.id}.py` |"
    )


class TestDeclarations:
    def test_ten_figures_in_paper_order(self):
        assert [figure.id for figure in figures()] == [
            "fig8", "table2", "fig9", "table3", "fig10", "fig11",
            "table4", "fig12", "fig13", "table5",
        ]

    def test_derived_figures_name_their_source(self):
        assert exp1.figure10.source is exp1.table3
        assert exp3.table5.source is exp3.figure13

    def test_design_table_reads_the_declarations(self):
        lines = DESIGN.read_text().splitlines()
        start = lines.index(DESIGN_HEADER) + 2
        table = lines[start:start + len(figures())]
        assert table == [design_row(figure) for figure in figures()]

    def test_unknown_parameter_rejected(self):
        with pytest.raises(TypeError, match="no parameter"):
            exp1.figure8(SMOKE, dds=(1,))

    def test_fixed_scheduler_set_is_not_a_parameter(self):
        with pytest.raises(TypeError, match="no parameter"):
            exp1.table3(SMOKE, schedulers=("ASL",))
        with pytest.raises(TypeError, match="no parameter"):
            exp3.table5(SMOKE, schedulers=("GOW",))
