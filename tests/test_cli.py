"""Tests for the command-line interface."""

import json

import pytest

from repro import artifact, cli
from repro.analysis.arena import ARENA
from repro.cli import build_parser, main


def load_arena(path):
    return artifact.load(path, ARENA)["payload"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "LOW"])
        assert args.scheduler == "LOW"
        assert args.workload == "exp1"
        assert args.rate == 1.0
        assert args.dd == 1
        assert args.mpl is None

    def test_run_custom_flags(self):
        args = build_parser().parse_args([
            "run", "GOW", "--workload", "exp2", "--rate", "0.5",
            "--dd", "4", "--mpl", "8", "--seed", "7",
        ])
        assert args.workload == "exp2"
        assert args.rate == 0.5
        assert args.dd == 4
        assert args.mpl == 8
        assert args.seed == 7

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "LOW", "--workload", "nope"])


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

    def test_run_exp1(self, capsys):
        code = main([
            "run", "ASL", "--rate", "0.4",
            "--duration", "120000", "--warmup", "20000",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput (TPS)" in out
        assert "ASL" in out

    def test_run_exp2(self, capsys):
        code = main([
            "run", "LOW", "--workload", "exp2", "--rate", "0.4",
            "--duration", "100000", "--warmup", "0",
        ])
        assert code == 0
        assert "LOW" in capsys.readouterr().out

    def test_run_exp3_with_sigma(self, capsys):
        code = main([
            "run", "GOW", "--workload", "exp3", "--sigma", "2.0",
            "--rate", "0.3", "--duration", "100000", "--warmup", "0",
        ])
        assert code == 0

    def test_run_with_mpl(self, capsys):
        code = main([
            "run", "C2PL", "--mpl", "4", "--rate", "0.4",
            "--duration", "100000", "--warmup", "0",
        ])
        assert code == 0

    def test_run_unknown_scheduler_raises(self):
        with pytest.raises(KeyError):
            main(["run", "NOPE", "--duration", "1000", "--warmup", "0"])


class TestTraceCommand:
    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "LOW"])
        assert args.jsonl == "trace.jsonl"
        assert args.chrome == ""
        assert args.top == 5
        assert args.max_events is None

    def test_trace_writes_artifacts_and_summary(self, tmp_path, capsys):
        jsonl = tmp_path / "t.jsonl"
        chrome = tmp_path / "t.json"
        code = main([
            "trace", "C2PL", "--rate", "0.6",
            "--duration", "40000", "--warmup", "0",
            "--jsonl", str(jsonl), "--chrome", str(chrome),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "schema valid" in out
        assert "trace summary" in out
        assert "events by kind" in out
        assert jsonl.exists() and chrome.exists()

    def test_trace_jsonl_can_be_disabled(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main([
            "trace", "NODC", "--rate", "0.4",
            "--duration", "20000", "--warmup", "0", "--jsonl", "",
        ])
        assert code == 0
        assert not (tmp_path / "trace.jsonl").exists()
        assert "trace summary" in capsys.readouterr().out

    def test_trace_max_events_warns_on_drop(self, tmp_path, capsys):
        code = main([
            "trace", "NODC", "--rate", "0.6",
            "--duration", "40000", "--warmup", "0",
            "--jsonl", str(tmp_path / "t.jsonl"), "--max-events", "10",
        ])
        assert code == 0
        assert "dropped" in capsys.readouterr().out

    def test_trace_bad_max_events(self):
        with pytest.raises(SystemExit):
            main(["trace", "LOW", "--max-events", "0",
                  "--duration", "1000", "--warmup", "0"])


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
        series = tmp_path / "run.series.json"
        csv = tmp_path / "run.series.csv"
        code = main([
            "run", "LOW", "--rate", "0.6",
            "--duration", "40000", "--warmup", "0",
            "--series", str(series), "--series-csv", str(csv),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[series]" in out
        assert "p95 exact" in out
        assert series.exists() and csv.exists()

    def test_run_without_series_flags_writes_nothing(self, tmp_path,
                                                     capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "run", "NODC", "--rate", "0.4",
            "--duration", "20000", "--warmup", "0",
        ]) == 0
        assert "[series]" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_bad_sample_interval_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "LOW", "--duration", "1000", "--warmup", "0",
                  "--series", "x.json", "--sample-interval", "0"])


class TestReportCommand:
    def _artifact(self, tmp_path):
        path = tmp_path / "run.series.json"
        assert main([
            "run", "GOW", "--rate", "0.6",
            "--duration", "40000", "--warmup", "0", "--series", str(path),
        ]) == 0
        return path

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
        path = tmp_path / "run.trace.jsonl"
        assert main([
            "trace", "LOW", "--rate", "1.2", "--duration", "30000",
            "--warmup", "0", "--seed", "3",
            "--jsonl", str(path), "--chrome", "",
        ]) == 0
        return path

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
        series = tmp_path / "run.series.json"
        assert main([
            "run", "LOW", "--rate", "1.2", "--duration", "30000",
            "--warmup", "0", "--seed", "3", "--series", str(series),
        ]) == 0
        capsys.readouterr()
        assert main([
            "report", str(series), "--explain", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("time budget")
        assert "queued" in out and "wasted" in out
