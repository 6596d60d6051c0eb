"""The EXPLAIN artifact pipeline: payload, schema, rendering, disk."""

import json

import pytest

from repro import artifact
from repro.analysis.explain import (
    EXPLAIN,
    explain_payload,
    explain_trace_path,
    render_budget_line,
    render_explain_markdown,
    render_txn_markdown,
    time_budget_of_trace,
    validate_explain,
)
from repro.machine.config import MachineConfig
from repro.obs import MemoryRecorder, write_jsonl
from repro.obs.attrib import fold_trace
from repro.sim.simulation import Simulation
from repro.txn.workload import experiment1_workload


@pytest.fixture(scope="module")
def traced_events():
    recorder = MemoryRecorder()
    Simulation(
        MachineConfig(dd=1),
        experiment1_workload(1.2),
        scheduler="LOW",
        seed=3,
        duration_ms=40_000.0,
        warmup_ms=0.0,
        recorder=recorder,
    ).run()
    return recorder.events


@pytest.fixture(scope="module")
def payload(traced_events):
    return explain_payload(traced_events, source={"trace": "mem"})


class TestPayload:
    def test_validates_and_counts_transactions(self, payload):
        count = validate_explain(payload)
        assert count == len(payload["transactions"]) > 0
        assert payload["source"]["trace"] == "mem"

    def test_committed_rows_conserve_response_time(self, payload):
        committed = [
            row for row in payload["transactions"]
            if row["status"] == "committed"
        ]
        assert committed
        for row in committed:
            attributed = (
                row["queued_ms"] + row["blocked_ms"]
                + row["executing_ms"] + row["wasted_ms"]
            )
            assert attributed == pytest.approx(row["response_ms"])

    def test_validation_rejects_broken_payloads(self, payload):
        missing = dict(payload)
        del missing["budget"]
        with pytest.raises(ValueError, match="budget"):
            validate_explain(missing)

    def test_validation_recomputes_conservation(self, payload):
        broken = json.loads(json.dumps(payload))
        row = next(
            r for r in broken["transactions"]
            if r["status"] == "committed"
        )
        row["executing_ms"] += 1.0
        with pytest.raises(ValueError, match="attributed"):
            validate_explain(broken)


class TestGoldenRoundTrip:
    def test_write_load_round_trip_is_identical(self, payload, tmp_path):
        json_path = tmp_path / "EXPLAIN.json"
        artifact.write(json_path, EXPLAIN, payload)
        reloaded = artifact.load(json_path, EXPLAIN)["payload"]
        assert reloaded == json.loads(json.dumps(payload))
        # load validates the payload; a corrupted artifact must not load
        corrupt = json.loads(json_path.read_text(encoding="utf-8"))
        del corrupt["payload"]["budget"]
        json_path.write_text(json.dumps(corrupt), encoding="utf-8")
        with pytest.raises(artifact.ArtifactError, match="budget"):
            artifact.load(json_path, EXPLAIN)

    def test_trace_artifact_to_payload(self, traced_events, tmp_path):
        trace = tmp_path / "run.trace.jsonl"
        write_jsonl(traced_events, trace)
        payload = explain_trace_path(trace)
        assert validate_explain(payload) > 0
        assert payload["source"]["trace"] == str(trace)
        budget = time_budget_of_trace(trace)
        assert budget["total_ms"] == pytest.approx(
            payload["budget"]["total_ms"]
        )


class TestRendering:
    def test_markdown_report_has_all_sections(self, payload):
        text = render_explain_markdown(payload)
        for heading in (
            "# Explain", "## Time budget", "## Lock hotspots",
            "## Critical path", "## Anomalies", "## Slowest transactions",
        ):
            assert heading in text

    def test_budget_line_shows_all_buckets(self, payload):
        line = render_budget_line(payload["budget"])
        for bucket in ("queued", "blocked", "executing", "wasted"):
            assert bucket in line

    def test_txn_deep_dive_resolves_roots_and_attempt_ids(
        self, traced_events
    ):
        attribution = fold_trace(traced_events)
        root = sorted(attribution.transactions)[0]
        text = render_txn_markdown(attribution, root)
        assert f"# Transaction T{root}" in text
        assert "## Attempt 0" in text
        with pytest.raises(KeyError):
            render_txn_markdown(attribution, 987654321)
