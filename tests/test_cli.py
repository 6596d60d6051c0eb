"""Tests for the command-line interface."""

import json

import pytest

from repro import artifact, cli
from repro.analysis.arena import ARENA
from repro.cli import build_parser, main


def load_arena(path):
    return artifact.load(path, ARENA)["payload"]


def one_cell(scheduler, rate, tmp_path, *extra):
    """A one-cell sweep writing only under ``tmp_path``."""
    return main([
        "sweep", scheduler, "--rates", rate, "--pool", "1",
        "--cache-dir", str(tmp_path / "cache"),
        "--runs-dir", str(tmp_path / "runs"),
        "--traces-dir", str(tmp_path / "traces"),
        "--series-dir", str(tmp_path / "series"),
        *extra,
    ])


def only_file(directory):
    (path,) = directory.iterdir()
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["sweep", "LOW"])
        assert args.schedulers == "LOW"
        assert args.workload == "exp1"
        assert args.dd == 1
        assert args.mpl is None
        assert args.trace is False and args.timeseries is False

    def test_run_custom_flags(self):
        args = build_parser().parse_args([
            "sweep", "GOW", "--workload", "exp2", "--rates", "0.5",
            "--dd", "4", "--mpl", "8", "--seed", "7",
        ])
        assert args.workload == "exp2"
        assert args.rates == "0.5"
        assert args.dd == 4
        assert args.mpl == 8
        assert args.seed == 7

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "LOW", "--workload", "nope"])

    def test_single_run_verbs_are_gone(self):
        for verb in ("run", "trace"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([verb, "LOW"])


class TestCommands:
    def test_schedulers_lists_paper_lineup(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        for name in ("NODC", "ASL", "GOW", "LOW", "C2PL", "OPT"):
            assert name in out

    def test_experiments_lists_all_ten(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for eid in ("fig8", "table2", "fig9", "table3", "fig10",
                    "fig11", "table4", "fig12", "fig13", "table5"):
            assert eid in out

    def test_run_exp1(self, tmp_path, capsys):
        code = one_cell(
            "ASL", "0.4", tmp_path, "--duration", "120000",
            "--warmup", "20000",
        )
        assert code == 0
        out = capsys.readouterr().out
        # one cell prints its metric table, not a 1 x 1 grid
        assert "simulation result" in out
        assert "throughput (TPS)" in out and "p95 exact" in out
        assert "ASL" in out
        assert "lambda_tps" not in out
        assert "artifact" not in out

    def test_run_exp2(self, tmp_path, capsys):
        code = one_cell(
            "LOW", "0.4", tmp_path, "--workload", "exp2",
            "--duration", "100000", "--warmup", "0",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "LOW" in out and "exp2" in out

    def test_run_exp3_with_sigma(self, tmp_path, capsys):
        code = one_cell(
            "GOW", "0.3", tmp_path, "--workload", "exp3", "--sigma", "2.0",
            "--duration", "100000", "--warmup", "0",
        )
        assert code == 0
        assert "exp3" in capsys.readouterr().out

    def test_run_with_mpl(self, tmp_path, capsys):
        code = one_cell(
            "C2PL", "0.4", tmp_path, "--mpl", "4",
            "--duration", "100000", "--warmup", "0",
        )
        assert code == 0
        assert "C2PL" in capsys.readouterr().out

    def test_run_parameterised_scheduler(self, tmp_path, capsys):
        code = one_cell(
            "LOW(K=1)", "0.4", tmp_path, "--duration", "20000",
            "--warmup", "0",
        )
        assert code == 0
        assert "LOW(K=1)" in capsys.readouterr().out

    def test_run_unknown_scheduler_raises(self, tmp_path):
        for name in ("NOPE", "LOW(Q=3)", "LOW(K=x)"):
            with pytest.raises(SystemExit, match="unknown scheduler"):
                one_cell(name, "0.4", tmp_path, "--duration", "1000",
                         "--warmup", "0")
        assert list(tmp_path.iterdir()) == []

    def test_grid_prints_one_row_per_rate(self, tmp_path, capsys):
        code = one_cell(
            "NODC,C2PL", "0.4,0.6", tmp_path, "--duration", "20000",
            "--warmup", "0",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "lambda_tps" in out and "simulation result" not in out


class TestTraceCommand:
    def test_trace_defaults(self):
        args = build_parser().parse_args(["sweep", "LOW", "--trace"])
        assert args.trace is True
        assert args.traces_dir == "results/traces"
        args = build_parser().parse_args(["report", "x.trace.jsonl"])
        assert args.export == ""
        assert args.width == 48

    def test_trace_writes_artifacts_and_summary(self, tmp_path, capsys):
        code = one_cell(
            "C2PL", "0.6", tmp_path, "--trace",
            "--duration", "40000", "--warmup", "0",
        )
        assert code == 0
        trace = only_file(tmp_path / "traces")
        out = capsys.readouterr().out
        assert f"trace artifact  {trace}" in out
        chrome = tmp_path / "t.json"
        assert main(["report", str(trace), "--export", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "events by kind" in out
        assert "WARNING" not in out
        assert f"chrome trace -> {chrome}" in out
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_trace_jsonl_can_be_disabled(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main([
            "sweep", "NODC", "--rates", "0.4", "--trace", "--pool", "1",
            "--duration", "20000", "--warmup", "0",
            "--traces-dir", "", "--cache-dir", "", "--runs-dir", "",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace artifacts: 0 file(s) under (disabled)" in out
        assert "trace artifact " not in out
        assert list(tmp_path.iterdir()) == []

    def test_trace_max_events_warns_on_drop(self, tmp_path, capsys):
        # a capped recorder's trace says so in its meta, and the report
        # leads with the warning
        from repro.machine import MachineConfig
        from repro.obs.export import write_jsonl
        from repro.obs.recorder import MemoryRecorder
        from repro.runner.spec import paper_workload
        from repro.sim.simulation import run_simulation

        recorder = MemoryRecorder(max_events=10)
        run_simulation(
            "NODC", paper_workload("exp1", 0.6, 16, 1.0).build(),
            MachineConfig(), duration_ms=40_000, warmup_ms=0,
            recorder=recorder,
        )
        path = write_jsonl(recorder.events, tmp_path / "t.jsonl",
                           meta={"scheduler": "NODC"},
                           dropped=recorder.dropped)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"WARNING: {recorder.dropped} event(s) dropped" in out


class TestSweepCommand:
    def test_sweep_reports_cache_counts_and_manifest(self, tmp_path, capsys):
        argv = [
            "sweep", "NODC", "--rates", "0.4",
            "--duration", "20000", "--warmup", "0",
            "--cache-dir", str(tmp_path / "cache"),
            "--runs-dir", str(tmp_path / "runs"),
            "--traces-dir", str(tmp_path / "traces"),
            "--pool", "1",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache hits=0 misses=1 simulated=1 coalesced=0" in out
        assert f"manifest={tmp_path / 'runs'}" in out
        # the repeat is served entirely from the cache
        assert main(argv) == 0
        assert "cache hits=1 misses=0" in capsys.readouterr().out

    def test_interrupt_exits_130_with_one_line(self, monkeypatch, capsys):
        def interrupted(_args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_command_sweep", interrupted)
        assert main(["sweep", "NODC", "--rates", "0.4"]) == 130
        captured = capsys.readouterr()
        assert captured.err == "interrupted\n"
        assert captured.out == ""

    def test_sweep_trace_reports_artifacts(self, tmp_path, capsys):
        assert main([
            "sweep", "NODC", "--rates", "0.4", "--trace",
            "--duration", "20000", "--warmup", "0",
            "--cache-dir", "", "--runs-dir", "",
            "--traces-dir", str(tmp_path / "traces"),
            "--pool", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "trace artifacts: 1 file(s)" in out
        assert len(list((tmp_path / "traces").iterdir())) == 1


class TestRunSeries:
    def test_run_writes_series_artifacts(self, tmp_path, capsys):
        code = one_cell(
            "LOW", "0.6", tmp_path, "--timeseries",
            "--duration", "40000", "--warmup", "0",
        )
        assert code == 0
        series = only_file(tmp_path / "series")
        out = capsys.readouterr().out
        assert "p95 exact" in out
        assert f"series artifact  {series}" in out
        csv = tmp_path / "run.series.csv"
        assert main(["report", str(series), "--export", str(csv)]) == 0
        assert f"long-format CSV -> {csv}" in capsys.readouterr().out
        lines = csv.read_text().splitlines()
        assert lines[0] == "series,t_ms,value"
        assert len(lines) > 1

    def test_run_without_series_flags_writes_nothing(self, tmp_path,
                                                     capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "sweep", "NODC", "--rates", "0.4", "--pool", "1",
            "--duration", "20000", "--warmup", "0",
            "--cache-dir", "", "--runs-dir", "",
        ]) == 0
        assert "artifact" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestReportCommand:
    def _artifact(self, tmp_path):
        assert one_cell(
            "GOW", "0.6", tmp_path, "--timeseries",
            "--duration", "40000", "--warmup", "0",
        ) == 0
        return only_file(tmp_path / "series")

    def test_report_renders_sparklines(self, tmp_path, capsys):
        path = self._artifact(tmp_path)
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cn.util" in out
        assert "sample(s)" in out

    def test_report_missing_file_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.json")]) == 1
        assert "ERROR" in capsys.readouterr().err

    def test_report_refuses_a_file_without_an_envelope(
        self, tmp_path, capsys
    ):
        stream = tmp_path / "old.trace.jsonl"
        stream.write_text(
            '{"t": 0.0, "kind": "trace.meta", "schema": 1, "seed": 1}\n'
            '{"t": 1.0, "kind": "txn.arrive", "txn": 1, "label": "B1"}\n'
        )
        document = tmp_path / "old.series.json"
        document.write_text('{"series": {}}\n')
        for path, family in ((stream, "trace"), (document, "series")):
            assert main(["report", str(path)]) == 1
            err = capsys.readouterr().err
            assert f"no artifact envelope (expected family '{family}')" in err


class TestTelemetryCommands:
    def _sweep(self, tmp_path, capsys):
        assert main([
            "sweep", "NODC,C2PL", "--rates", "0.4",
            "--duration", "20000", "--warmup", "0",
            "--cache-dir", "", "--runs-dir", str(tmp_path / "runs"),
            "--pool", "2", "--telemetry",
        ]) == 0
        out = capsys.readouterr().out
        assert "telemetry: batch" in out
        return out

    def test_sweep_telemetry_then_watch_once(self, tmp_path, capsys):
        self._sweep(tmp_path, capsys)
        assert main([
            "watch", "latest", "--once",
            "--runs-dir", str(tmp_path / "runs"),
        ]) == 0
        out = capsys.readouterr().out
        assert "complete" in out
        assert "100.0%" in out
        assert "2/2 finished" in out

    def test_runs_list_and_show(self, tmp_path, capsys):
        self._sweep(tmp_path, capsys)
        assert main(["runs", "--runs-dir", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "cli-sweep" in out
        assert "complete" in out

    def test_watch_unknown_batch_fails_cleanly(self, tmp_path, capsys):
        assert main([
            "watch", "nope", "--once",
            "--runs-dir", str(tmp_path / "runs"),
        ]) == 1
        assert "ERROR" in capsys.readouterr().err

    def test_watch_batch_without_telemetry_fails_cleanly(
        self, tmp_path, capsys
    ):
        assert main([
            "sweep", "NODC", "--rates", "0.4",
            "--duration", "20000", "--warmup", "0",
            "--cache-dir", "", "--runs-dir", str(tmp_path / "runs"),
            "--pool", "1",
        ]) == 0
        capsys.readouterr()
        assert main([
            "watch", "latest", "--once",
            "--runs-dir", str(tmp_path / "runs"),
        ]) == 1
        assert "without" in capsys.readouterr().err

    def test_sweep_telemetry_needs_runs_dir(self):
        with pytest.raises(SystemExit):
            main([
                "sweep", "NODC", "--rates", "0.4",
                "--duration", "20000", "--warmup", "0",
                "--runs-dir", "", "--telemetry",
            ])

    def test_sweep_stall_timeout_needs_telemetry(self):
        with pytest.raises(SystemExit, match="needs --telemetry"):
            main([
                "sweep", "NODC", "--rates", "0.4",
                "--duration", "20000", "--warmup", "0",
                "--stall-timeout", "5",
            ])

class TestSchedulersCommand:
    def test_lists_modern_lineup_with_families(self, capsys):
        assert main(["schedulers"]) == 0
        out = capsys.readouterr().out
        for name in ("DGCC", "CAR", "PRED"):
            assert name in out
        assert "modern" in out and "paper" in out and "extension" in out
        # parameterised spellings are advertised
        assert "DGCC(B=" in out


class TestArenaCommand:
    def run_arena(self, tmp_path, *extra):
        return main([
            "arena",
            "--schedulers", "NODC,DGCC",
            "--rates", "0.8",
            "--dds", "1",
            "--duration", "20000",
            "--warmup", "0",
            "--pool", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "arena"),
            "--traces-dir", str(tmp_path / "traces"),
            *extra,
        ])

    def test_writes_valid_report_pair(self, tmp_path, capsys):
        assert self.run_arena(tmp_path, "--no-explain") == 0
        out = capsys.readouterr().out
        assert "2 cell(s)" in out and "schema valid" in out
        payload = load_arena(tmp_path / "arena" / "ARENA.json")
        assert [c["scheduler"] for c in payload["cells"]] == ["NODC", "DGCC"]
        assert "time_budget" not in payload["cells"][0]
        md = (tmp_path / "arena" / "ARENA.md").read_text(encoding="utf-8")
        assert "**(best)**" in md

    def test_explain_pass_adds_time_budgets(self, tmp_path, capsys):
        assert self.run_arena(tmp_path) == 0
        payload = load_arena(tmp_path / "arena" / "ARENA.json")
        for cell in payload["cells"]:
            budget = cell["time_budget"]
            assert budget["total_ms"] > 0
            assert set(budget["fractions"]) == {
                "queued", "blocked", "executing", "wasted",
            }
        md = (tmp_path / "arena" / "ARENA.md").read_text(encoding="utf-8")
        assert "%queued" in md and "%wasted" in md
        assert (tmp_path / "traces").glob("*.trace.jsonl")

    def test_unknown_scheduler_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            self.run_arena(tmp_path, "--schedulers", "NOPE")

    def test_empty_axes_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            self.run_arena(tmp_path, "--rates", "")


class TestCacheCommand:
    def _warm(self, tmp_path, capsys, rates="0.4"):
        assert main([
            "sweep", "NODC", "--rates", rates,
            "--duration", "20000", "--warmup", "0",
            "--cache-dir", str(tmp_path / "cache"), "--runs-dir", "",
            "--pool", "1",
        ]) == 0
        capsys.readouterr()

    def test_cache_stats(self, tmp_path, capsys):
        self._warm(tmp_path, capsys)
        assert main(["cache", "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "result cache" in out

    def test_cache_prune_by_count(self, tmp_path, capsys):
        self._warm(tmp_path, capsys, rates="0.4,0.5")
        assert main([
            "cache", "--cache-dir", str(tmp_path / "cache"),
            "--max-entries", "1",
        ]) == 0
        assert "pruned 1 of 2" in capsys.readouterr().out

    def test_cache_dry_run_keeps_entries(self, tmp_path, capsys):
        self._warm(tmp_path, capsys)
        assert main([
            "cache", "--cache-dir", str(tmp_path / "cache"),
            "--max-entries", "0", "--dry-run",
        ]) == 0
        assert "would prune 1" in capsys.readouterr().out
        assert main(["cache", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        assert "entries" in capsys.readouterr().out

    def test_dry_run_without_criteria_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "--cache-dir", str(tmp_path), "--dry-run"])


class TestExplainCommand:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        assert one_cell(
            "LOW", "1.2", tmp_path, "--trace", "--duration", "30000",
            "--warmup", "0", "--seed", "3",
        ) == 0
        return only_file(tmp_path / "traces")

    def test_explain_writes_validated_artifact_pair(
        self, trace_path, tmp_path, capsys
    ):
        out = tmp_path / "explain"
        assert main(["explain", str(trace_path), "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "## Time budget" in stdout
        assert "schema valid" in stdout
        from repro.analysis.explain import EXPLAIN

        payload = artifact.load(out / "EXPLAIN.json", EXPLAIN)["payload"]
        assert payload["source"]["trace"] == str(trace_path)
        assert (out / "EXPLAIN.md").read_text(encoding="utf-8").startswith(
            "# Explain"
        )

    def test_explain_json_emits_machine_readable_payload(
        self, trace_path, capsys
    ):
        assert main([
            "explain", str(trace_path), "--json", "--out", "",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {"source", "budget", "transactions"} <= set(payload)
        assert payload["budget"]["total_ms"] > 0

    def test_explain_txn_deep_dive(self, trace_path, capsys):
        assert main([
            "explain", str(trace_path), "--txn", "1", "--out", "",
        ]) == 0
        assert "# Transaction T1" in capsys.readouterr().out

    def test_explain_rejects_json_plus_md(self, trace_path):
        with pytest.raises(SystemExit):
            main(["explain", str(trace_path), "--json", "--md"])

    def test_explain_missing_target_fails(self, tmp_path):
        assert main([
            "explain", str(tmp_path / "nope.trace.jsonl"), "--out", "",
        ]) != 0

    def test_explain_refuses_an_un_enveloped_trace(self, tmp_path, capsys):
        path = tmp_path / "old.trace.jsonl"
        path.write_text(
            '{"t": 0.0, "kind": "trace.meta", "schema": 1, "seed": 1}\n'
            '{"t": 1.0, "kind": "txn.arrive", "txn": 1, "label": "B1"}\n'
        )
        assert main(["explain", str(path), "--out", ""]) == 1
        assert "expected family 'trace'" in capsys.readouterr().err

    def test_report_leads_with_budget_headline(
        self, trace_path, tmp_path, capsys
    ):
        assert one_cell(
            "LOW", "1.2", tmp_path, "--timeseries", "--duration", "30000",
            "--warmup", "0", "--seed", "3",
        ) == 0
        series = only_file(tmp_path / "series")
        capsys.readouterr()
        assert main([
            "report", str(series), "--explain", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("time budget")
        assert "queued" in out and "wasted" in out
