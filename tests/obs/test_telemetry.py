"""Unit tests for the live telemetry layer (schema, emitter, aggregation)."""

import json
import os

import pytest

from repro import artifact
from repro.artifact import ArtifactError
from repro.obs.telemetry import (
    STATUS,
    TELEMETRY,
    TELEMETRY_EVENT_KINDS,
    BatchStatus,
    WorkerTelemetry,
    render_status,
    telemetry_event_kinds,
)


def validate_telemetry_event(record):
    artifact.check_record(TELEMETRY, record)


def validate_telemetry_jsonl(path):
    return artifact.check_stream(path, TELEMETRY)


#: one syntactically complete example record per kind -- tests iterate
#: this so a newly added kind is covered automatically
EXAMPLES = {
    "batch.meta": artifact.envelope(
        TELEMETRY, {"batch": "b1", "label": "sweep", "total": 2}
    ),
    "batch.done": {"status": "complete", "wall_s": 1.5},
    "run.cached": {"cell": 0},
    "run.coalesced": {"cell": 1},
    "run.start": {"cell": 0, "pid": 4242, "key": "abc", "until_ms": 1000.0},
    "run.heartbeat": {
        "cell": 0, "pid": 4242, "sim_ms": 500.0, "until_ms": 1000.0,
        "events": 128, "progress": 0.5,
    },
    "run.done": {"cell": 0, "pid": 4242, "wall_s": 0.25},
    "run.error": {"cell": 0, "error": "ValueError: boom"},
    "run.stalled": {"cell": 0, "idle_s": 3.2},
    "run.retry": {"cell": 0, "attempt": 2},
}


def test_examples_cover_every_kind():
    assert set(EXAMPLES) == set(TELEMETRY_EVENT_KINDS)
    assert telemetry_event_kinds() == tuple(sorted(TELEMETRY_EVENT_KINDS))


class TestValidator:
    @pytest.mark.parametrize("kind", sorted(TELEMETRY_EVENT_KINDS))
    def test_valid_record_roundtrips(self, kind):
        record = {"ts": 123.456, "kind": kind, **EXAMPLES[kind]}
        decoded = json.loads(json.dumps(record))
        validate_telemetry_event(decoded)  # must not raise

    @pytest.mark.parametrize("kind", sorted(TELEMETRY_EVENT_KINDS))
    def test_each_required_field_is_enforced(self, kind):
        for field in TELEMETRY_EVENT_KINDS[kind]:
            record = {"ts": 1.0, "kind": kind, **EXAMPLES[kind]}
            del record[field]
            with pytest.raises(ArtifactError):
                validate_telemetry_event(record)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ArtifactError):
            validate_telemetry_event({"ts": 1.0, "kind": "run.nope"})

    def test_rejects_missing_or_bad_ts(self):
        with pytest.raises(ArtifactError):
            validate_telemetry_event({"kind": "run.cached", "cell": 0})
        with pytest.raises(ArtifactError):
            validate_telemetry_event(
                {"ts": "now", "kind": "run.cached", "cell": 0}
            )
        with pytest.raises(ArtifactError):
            validate_telemetry_event(
                {"ts": -5.0, "kind": "run.cached", "cell": 0}
            )

    def test_rejects_missing_kind(self):
        with pytest.raises(ArtifactError):
            validate_telemetry_event({"ts": 1.0})


class TestStreamValidator:
    def _write(self, path, records):
        with path.open("w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    def _meta(self, **overrides):
        record = {
            "ts": 1.0, "kind": "batch.meta", **EXAMPLES["batch.meta"],
        }
        record.update(overrides)
        return record

    def test_valid_stream_counts_records(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        self._write(path, [
            self._meta(),
            {"ts": 2.0, "kind": "run.start", **EXAMPLES["run.start"]},
            {"ts": 3.0, "kind": "run.done", **EXAMPLES["run.done"]},
            {"ts": 4.0, "kind": "batch.done", **EXAMPLES["batch.done"]},
        ])
        assert validate_telemetry_jsonl(path) == 4

    def test_first_record_must_be_meta(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        self._write(path, [
            {"ts": 2.0, "kind": "run.start", **EXAMPLES["run.start"]},
        ])
        with pytest.raises(ArtifactError, match="batch.meta"):
            validate_telemetry_jsonl(path)

    def test_schema_version_is_checked(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        self._write(path, [self._meta(schema_version=999)])
        with pytest.raises(ArtifactError, match="schema_version"):
            validate_telemetry_jsonl(path)

    def test_rejects_malformed_json_with_line_number(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        path.write_text(
            json.dumps(self._meta()) + "\n" + "{not json\n"
        )
        with pytest.raises(ArtifactError, match=":2"):
            validate_telemetry_jsonl(path)

    def test_rejects_empty_stream(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        path.write_text("")
        with pytest.raises(ArtifactError, match="empty"):
            validate_telemetry_jsonl(path)

    def test_interleaved_timestamps_are_legal(self, tmp_path):
        # wall clocks of concurrent workers interleave; ts need not be
        # monotone (unlike the simulated clock of trace files)
        path = tmp_path / "telemetry.jsonl"
        self._write(path, [
            self._meta(ts=5.0),
            {"ts": 4.0, "kind": "run.start", **EXAMPLES["run.start"]},
            {"ts": 3.0, "kind": "run.done", **EXAMPLES["run.done"]},
        ])
        assert validate_telemetry_jsonl(path) == 3


class TestWorkerTelemetry:
    def test_lifecycle_emits_start_heartbeat_done(self):
        records = []
        worker = WorkerTelemetry(
            cell=2, until_ms=1000.0, key="k", label="cell-2",
            heartbeat_s=0.0, send=records.append,
        )
        worker.start()
        worker._on_progress(250.0, 64)
        worker._on_progress(750.0, 192)
        worker.done(wall_s=0.5, events=256)
        assert [r["kind"] for r in records] == [
            "run.start", "run.heartbeat", "run.heartbeat", "run.done",
        ]
        assert records[1]["progress"] == 0.25
        assert records[2]["progress"] == 0.75
        assert all(r["cell"] == 2 for r in records)
        assert all(r["pid"] == os.getpid() for r in records)
        for record in records:
            validate_telemetry_event(json.loads(json.dumps(record)))

    def test_heartbeats_throttled_by_wall_clock(self):
        records = []
        worker = WorkerTelemetry(
            cell=0, until_ms=1000.0, heartbeat_s=3600.0, send=records.append,
        )
        worker.start()
        for step in range(10):
            worker._on_progress(step * 100.0, step * 10)
        assert [r["kind"] for r in records] == ["run.start"]

    def test_error_carries_message_and_traceback(self):
        records = []
        worker = WorkerTelemetry(cell=0, until_ms=1.0, send=records.append)
        try:
            raise ValueError("boom")
        except ValueError as exc:
            worker.error(exc)
        (record,) = records
        assert record["error"] == "ValueError: boom"
        assert "ValueError" in record["traceback"]

    def test_install_hooks_engine_progress(self):
        from repro.des.engine import Environment

        records = []
        worker = WorkerTelemetry(
            cell=0, until_ms=10_000.0, heartbeat_s=0.0, progress_every=2,
            send=records.append,
        )
        env = Environment()
        worker.install(env)
        assert env.progress_every == 2
        for delay in range(6):
            env.timeout(float(delay))
        env.run()
        assert [r["kind"] for r in records].count("run.heartbeat") >= 2

    @pytest.mark.parametrize("last", ["done", "error"])
    def test_last_record_ends_the_cell(self, last):
        records = []
        worker = WorkerTelemetry(cell=0, until_ms=1.0, send=records.append)
        worker.start()
        if last == "done":
            worker.done(wall_s=0.1, events=1)
        else:
            worker.error(ValueError("boom"))
        assert [r["kind"] for r in records] == ["run.start", f"run.{last}"]
        status = BatchStatus("b1", "sweep", _cells(1))
        for record in records:
            status.consume(record)
        assert status.cells[0]["state"] == (
            "done" if last == "done" else "failed"
        )


def _cells(n, until_ms=1000.0):
    return [
        {"cell": i, "key": f"k{i}", "label": f"cell-{i}",
         "until_ms": until_ms}
        for i in range(n)
    ]


class TestBatchStatus:
    def test_full_lifecycle_to_complete(self):
        status = BatchStatus("b1", "sweep", _cells(3))
        status.consume({"ts": 1.0, "kind": "run.cached", "cell": 0})
        status.consume({"ts": 1.0, "kind": "run.start", "cell": 1,
                        "pid": 11, "key": "k1", "until_ms": 1000.0})
        status.consume({"ts": 2.0, "kind": "run.heartbeat", "cell": 1,
                        "pid": 11, "sim_ms": 400.0, "until_ms": 1000.0,
                        "events": 100, "progress": 0.4})
        snap = status.snapshot()
        assert snap["status"] == "running"
        assert snap["counts"]["cached"] == 1
        assert snap["counts"]["running"] == 1
        assert snap["counts"]["pending"] == 1
        assert snap["workers"] == [{"pid": 11, "cell": 1}]
        assert snap["progress"] == pytest.approx((1.0 + 0.4 + 0.0) / 3)
        status.consume({"ts": 3.0, "kind": "run.done", "cell": 1,
                        "pid": 11, "wall_s": 0.2})
        status.consume({"ts": 3.5, "kind": "run.coalesced", "cell": 2})
        status.consume({"ts": 4.0, "kind": "batch.done",
                        "status": "complete", "wall_s": 3.0})
        snap = status.snapshot()
        assert snap["status"] == "complete"
        assert snap["progress"] == 1.0
        assert snap["counts"]["done"] == 2

    def test_ewma_and_eta_from_heartbeats(self):
        status = BatchStatus("b1", "sweep", _cells(1, until_ms=10_000.0))
        status.consume({"ts": 10.0, "kind": "run.start", "cell": 0,
                        "pid": 5, "key": "k", "until_ms": 10_000.0})
        status.consume({"ts": 11.0, "kind": "run.heartbeat", "cell": 0,
                        "pid": 5, "sim_ms": 1000.0, "until_ms": 10_000.0,
                        "events": 500, "progress": 0.1})
        status.consume({"ts": 12.0, "kind": "run.heartbeat", "cell": 0,
                        "pid": 5, "sim_ms": 2000.0, "until_ms": 10_000.0,
                        "events": 1000, "progress": 0.2})
        snap = status.snapshot()
        # 500 events/s and 1000 sim-ms/s -> 8000 remaining ms / 1000
        assert snap["ewma_events_per_s"] == pytest.approx(500.0, rel=0.01)
        assert snap["eta_s"] == pytest.approx(8.0, rel=0.01)

    def test_stalled_candidates_and_recovery(self):
        status = BatchStatus("b1", "sweep", _cells(2))
        status.consume({"ts": 100.0, "kind": "run.start", "cell": 0,
                        "pid": 5, "key": "k", "until_ms": 1000.0})
        # cell 1 still pending: never a stall candidate
        assert status.stalled_candidates(10.0, now=105.0) == []
        assert status.stalled_candidates(10.0, now=111.0) == [0]
        status.consume({"ts": 111.0, "kind": "run.stalled", "cell": 0,
                        "idle_s": 11.0})
        assert status.cells[0]["state"] == "stalled"
        # a late heartbeat proves it was merely slow
        status.consume({"ts": 112.0, "kind": "run.heartbeat", "cell": 0,
                        "pid": 5, "sim_ms": 1.0, "until_ms": 1000.0,
                        "events": 1, "progress": 0.001})
        assert status.cells[0]["state"] == "running"
        assert status.stalled_candidates(10.0, now=113.0) == []

    def test_retry_resets_cell_and_attempt_counts(self):
        status = BatchStatus("b1", "sweep", _cells(1))
        status.consume({"ts": 1.0, "kind": "run.start", "cell": 0,
                        "pid": 5, "key": "k", "until_ms": 1000.0})
        status.consume({"ts": 2.0, "kind": "run.retry", "cell": 0,
                        "attempt": 2})
        assert status.cells[0]["state"] == "pending"
        assert status.cells[0]["pid"] is None
        status.consume({"ts": 3.0, "kind": "run.start", "cell": 0,
                        "pid": 6, "key": "k", "until_ms": 1000.0})
        assert status.cells[0]["attempt"] == 2

    def test_error_marks_cell_failed(self):
        status = BatchStatus("b1", "sweep", _cells(1))
        status.consume({"ts": 1.0, "kind": "run.error", "cell": 0,
                        "error": "ValueError: boom"})
        snap = status.snapshot()
        assert snap["counts"]["failed"] == 1
        assert snap["cells"][0]["error"] == "ValueError: boom"

    def test_ignores_out_of_range_cells(self):
        status = BatchStatus("b1", "sweep", _cells(1))
        status.consume({"ts": 1.0, "kind": "run.cached", "cell": 99})
        assert status.snapshot()["counts"]["pending"] == 1


class TestStatusFile:
    def test_write_read_roundtrip(self, tmp_path):
        status = BatchStatus("b1", "sweep", _cells(2))
        path = tmp_path / "status.json"
        artifact.write(path, STATUS, status.snapshot())
        document = artifact.load(path, STATUS)
        assert document["family"] == "status"
        snap = document["payload"]
        assert snap["batch"] == "b1"
        assert len(snap["cells"]) == 2

    def test_no_temp_litter_after_write(self, tmp_path):
        snapshot = BatchStatus("b1", "sweep", _cells(1)).snapshot()
        artifact.write(tmp_path / "s.json", STATUS, snapshot)
        assert [p.name for p in tmp_path.iterdir()] == ["s.json"]

    def test_read_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "s.json"
        snapshot = BatchStatus("b1", "sweep", _cells(1)).snapshot()
        document = artifact.write(path, STATUS, snapshot)
        path.write_text(json.dumps({**document, "schema_version": 999}))
        with pytest.raises(ValueError, match="schema_version"):
            artifact.load(path, STATUS)


class TestRendering:
    def _snapshot(self):
        status = BatchStatus("b1", "sweep", _cells(2))
        status.consume({"ts": 1.0, "kind": "run.start", "cell": 0,
                        "pid": 7, "key": "k0", "until_ms": 1000.0})
        status.consume({"ts": 2.0, "kind": "run.error", "cell": 1,
                        "error": "ValueError: boom"})
        return status.snapshot()

    def test_render_status_mentions_cells_and_states(self):
        frame = render_status(self._snapshot())
        assert "b1" in frame
        assert "pid=7" in frame
        assert "failed" in frame
        assert "ValueError" in frame

    def test_records_and_status_with_a_host_field_still_load(self, tmp_path):
        # streams and status files written while workers reported a host
        path = tmp_path / "telemetry.jsonl"
        records = [
            {"ts": 1.0, "kind": "batch.meta", **EXAMPLES["batch.meta"]},
            {"ts": 2.0, "kind": "run.start", "host": "node-a",
             **EXAMPLES["run.start"]},
            {"ts": 3.0, "kind": "run.done", "host": "node-a",
             **EXAMPLES["run.done"]},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert validate_telemetry_jsonl(path) == 3
        status = BatchStatus("b1", "sweep", _cells(1))
        status.consume(records[1])
        assert status.snapshot()["workers"] == [{"pid": 4242, "cell": 0}]
        old = status.snapshot()
        old["workers"][0]["host"] = "node-a"
        old["cells"][0]["host"] = "node-a"
        status_path = tmp_path / "status.json"
        artifact.write(status_path, STATUS, old)
        frame = render_status(artifact.load(status_path, STATUS)["payload"])
        assert "pid=4242" in frame and "node-a" not in frame


class TestPeakRss:
    def test_max_rss_kb_reports_a_sane_figure(self):
        from repro.obs.telemetry import max_rss_kb

        rss = max_rss_kb()
        # this test process has the interpreter + pytest resident, so
        # anything from a few MB to a few GB is plausible
        assert rss is not None
        assert 1_000 < rss < 64 * 1024 * 1024

    def test_heartbeat_and_done_carry_maxrss(self):
        records = []
        worker = WorkerTelemetry(
            cell=0, until_ms=1000.0, heartbeat_s=0.0, send=records.append,
        )
        worker.start()
        worker._on_progress(500.0, 32)
        worker.done(wall_s=0.1, events=64)
        by_kind = {r["kind"]: r for r in records}
        assert by_kind["run.heartbeat"]["maxrss_kb"] > 0
        assert by_kind["run.done"]["maxrss_kb"] > 0
        # optional field: the stream still validates
        for record in records:
            validate_telemetry_event(record)
