"""Exporter tests: JSONL round trip, Chrome trace shape, text summary."""

import json

from repro.obs import MemoryRecorder, render_summary, to_chrome_trace
from repro.obs.events import EVENT_KINDS
from repro import artifact
from repro.obs.events import TRACE
from repro.obs.export import read_jsonl, write_chrome_trace, write_jsonl


def _lifecycle_recorder():
    """A tiny hand-written history exercising every span type."""
    rec = MemoryRecorder()
    e = rec.emit
    e(0.0, "txn.arrive", txn=1, label="B1")
    e(0.0, "txn.admit", txn=1)
    e(1.0, "cn.exec_start", category="startup", cost_ms=2.0)
    e(3.0, "cn.exec_end", category="startup")
    e(3.0, "txn.lock_wait", txn=2, file=5, mode="EXCLUSIVE")
    e(3.0, "txn.block", txn=2, file=5, holders=[1])
    e(4.0, "node.busy", node=0)
    e(4.0, "node.queue", node=0, depth=1)
    e(6.0, "node.idle", node=0)
    e(6.0, "txn.step_start", txn=1, file=5, step=0, cost=2.0)
    e(8.0, "txn.step_end", txn=1, file=5, step=0)
    e(8.0, "txn.lock_acquired", txn=2, file=5, wait_ms=5.0)
    e(9.0, "txn.restart", txn=2, new_txn=10, reason="deadlock")
    e(9.5, "txn.restart", txn=10, new_txn=11, reason="deadlock")
    e(10.0, "txn.commit", txn=1, response_ms=10.0)
    return rec


class TestJsonl:
    def test_round_trip_preserves_records(self, tmp_path):
        rec = _lifecycle_recorder()
        path = write_jsonl(rec.events, tmp_path / "t.jsonl", meta={"seed": 3})
        records = read_jsonl(path)
        assert len(records) == len(rec.events) + 1
        assert records[0]["kind"] == "trace.meta"
        for record, event in zip(records[1:], rec.events):
            assert record == json.loads(json.dumps(event.to_record()))

    def test_creates_parent_directories(self, tmp_path):
        path = write_jsonl([], tmp_path / "a" / "b" / "t.jsonl")
        assert path.exists()


class TestChromeTrace:
    def test_loads_as_json_and_has_tracks(self, tmp_path):
        rec = _lifecycle_recorder()
        path = write_chrome_trace(rec.events, tmp_path / "t.json",
                                  meta={"scheduler": "LOW"})
        payload = json.loads(path.read_text())
        assert payload["otherData"] == {"scheduler": "LOW"}
        events = payload["traceEvents"]
        names = {e["name"] for e in events}
        # one CN slice named by cost category, one DPN busy span,
        # one per-step scan span, one lock-wait span
        assert {"startup", "scan", "scan F5", "wait F5"} <= names
        # process/thread metadata so Perfetto labels the tracks
        metas = [e for e in events if e["ph"] == "M"]
        labels = {e["args"]["name"] for e in metas}
        assert {"machine", "transactions", "CN cpu", "DPN 0", "T1"} <= labels

    def test_span_times_are_microseconds(self):
        rec = _lifecycle_recorder()
        events = to_chrome_trace(rec.events)["traceEvents"]
        cn = next(e for e in events if e["name"] == "startup")
        assert cn["ts"] == 1000.0 and cn["dur"] == 2000.0  # 1ms..3ms

    def test_open_intervals_closed_as_truncated(self):
        rec = MemoryRecorder()
        rec.emit(0.0, "txn.admit", txn=1)
        rec.emit(2.0, "node.busy", node=3)
        rec.emit(5.0, "txn.arrive", txn=2, label="B1")  # just advances time
        events = to_chrome_trace(rec.events)["traceEvents"]
        truncated = [e for e in events
                     if e.get("args", {}).get("truncated")]
        assert {e["name"] for e in truncated} == {"active", "scan"}
        for e in truncated:
            assert e["ts"] + e["dur"] == 5.0 * 1000

    def test_empty_stream(self):
        payload = to_chrome_trace([])
        # only the process-name metadata records, no spans or instants
        assert all(e["ph"] == "M" for e in payload["traceEvents"])


class TestSummary:
    def test_mentions_blockers_waits_and_restart_chains(self):
        text = render_summary(_lifecycle_recorder().events)
        assert "1 commits" in text
        assert "T1" in text and "blocked others 1 time(s)" in text
        assert "F5" in text
        assert "1 completed waits" in text
        # two (old, new) pairs stitch into one chain of three attempts
        assert "2 restart(s) in 1 chain(s)" in text
        assert "T2 -> T10 -> T11" in text

    def test_empty_stream(self):
        text = render_summary([])
        assert "0 events" in text
        assert "no blocking observed" in text


def _one_event_of_every_kind():
    """A synthetic stream containing one record of every schema kind."""
    sample_fields = {
        "txn": 1, "new_txn": 2, "label": "B1", "file": 3, "mode": "SHARED",
        "wait_ms": 4.0, "holders": [9], "step": 0, "cost": 2.0,
        "reason": "deadlock", "response_ms": 10.0, "src": 1, "dst": 2,
        "ok": True, "consistent": True, "e_q": 0.5, "granted": True,
        "deadlock": False, "node": 0, "depth": 2, "category": "startup",
        "cost_ms": 1.5, "name": "cn.cpu",
        "epoch": 0, "batch": 3, "queue": 1, "live": 4, "moved": 2,
        "score": 0.25, "admitted": True,
    }
    rec = MemoryRecorder()
    for t, kind in enumerate(sorted(EVENT_KINDS)):
        if kind == "trace.meta":
            continue  # written by the exporter, never emitted
        fields = {f: sample_fields[f] for f in EVENT_KINDS[kind]}
        rec.emit(float(t), kind, **fields)
    return rec


class TestEveryKind:
    """Exporters must accept the full event vocabulary, not just the
    kinds the curated lifecycle fixture happens to emit."""

    def test_stream_covers_every_kind(self):
        rec = _one_event_of_every_kind()
        assert {e.kind for e in rec.events} == set(EVENT_KINDS) - {"trace.meta"}

    def test_jsonl_round_trip_validates_every_kind(self, tmp_path):
        rec = _one_event_of_every_kind()
        path = write_jsonl(rec.events, tmp_path / "all.jsonl")
        assert artifact.check_stream(path, TRACE) == len(rec.events) + 1
        records = read_jsonl(path)
        assert {r["kind"] for r in records} == set(EVENT_KINDS)

    def test_chrome_trace_round_trip_every_kind(self, tmp_path):
        rec = _one_event_of_every_kind()
        path = write_chrome_trace(rec.events, tmp_path / "all.json")
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert events, "no Chrome records produced"
        # every record is well-formed Chrome trace JSON
        for record in events:
            assert "ph" in record and "pid" in record
            if record["ph"] in ("X", "i", "C"):
                assert record["ts"] >= 0.0
        # the instants the exporter maps must all appear
        names = {e["name"] for e in events}
        assert {"arrive", "blocked", "delayed", "restart",
                "admit rejected"} <= names
        # counter tracks from both node.queue and res.queue
        counters = {e["name"] for e in events if e["ph"] == "C"}
        assert {"dpn0 queue", "cn.cpu queue"} <= counters

    def test_summary_accepts_every_kind(self):
        text = render_summary(_one_event_of_every_kind().events)
        assert "events by kind" in text


class TestDroppedWarnings:
    """A capped recorder's dropped count must surface in every exporter."""

    def test_jsonl_meta_flags_truncation(self, tmp_path):
        rec = _lifecycle_recorder()
        path = write_jsonl(rec.events, tmp_path / "t.jsonl", dropped=7)
        meta = read_jsonl(path)[0]["payload"]
        assert meta["events_dropped"] == 7
        assert meta["truncated"] is True

    def test_jsonl_meta_clean_when_nothing_dropped(self, tmp_path):
        rec = _lifecycle_recorder()
        path = write_jsonl(rec.events, tmp_path / "t.jsonl")
        meta = read_jsonl(path)[0]["payload"]
        assert "truncated" not in meta

    def test_chrome_other_data_flags_truncation(self):
        rec = _lifecycle_recorder()
        payload = to_chrome_trace(rec.events, dropped=3)
        assert payload["otherData"]["events_dropped"] == 3
        assert payload["otherData"]["truncated"] is True

    def test_chrome_merges_meta_and_drop_flag(self):
        payload = to_chrome_trace([], meta={"scheduler": "LOW"}, dropped=1)
        assert payload["otherData"]["scheduler"] == "LOW"
        assert payload["otherData"]["truncated"] is True

    def test_summary_warns_on_drop(self):
        text = render_summary(_lifecycle_recorder().events, dropped=12)
        assert "WARNING" in text and "12" in text

    def test_summary_silent_without_drop(self):
        text = render_summary(_lifecycle_recorder().events)
        assert "WARNING" not in text
