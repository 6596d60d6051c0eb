"""Schema validation of exported traces (the TRACE artifact family)."""

import json

import pytest

from repro import artifact
from repro.artifact import ArtifactError
from repro.obs import MemoryRecorder, write_jsonl
from repro.obs.events import EVENT_KINDS, TRACE, event_kinds


def validate_event(record):
    artifact.check_record(TRACE, record)


def validate_jsonl(path):
    return artifact.check_stream(path, TRACE)


def _header(**overrides):
    record = {"t": 0.0, "kind": "trace.meta", **artifact.envelope(TRACE, {})}
    record.update(overrides)
    return json.dumps(record)


def _recorded():
    rec = MemoryRecorder()
    rec.emit(0.5, "txn.arrive", txn=1, label="B1")
    rec.emit(1.0, "txn.admit", txn=1)
    rec.emit(4.0, "lock.grant", txn=1, file=3, mode="EXCLUSIVE")
    rec.emit(9.0, "txn.commit", txn=1, response_ms=8.5)
    return rec


class TestValidateEvent:
    def test_all_registered_kinds_have_fields(self):
        assert set(event_kinds()) == set(EVENT_KINDS)
        for kind, fields in EVENT_KINDS.items():
            assert isinstance(fields, tuple)

    def test_valid_record_passes(self):
        validate_event({"t": 1.0, "kind": "txn.admit", "txn": 4})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ArtifactError):
            validate_event({"t": 1.0, "kind": "txn.teleport", "txn": 4})

    def test_missing_kind_rejected(self):
        with pytest.raises(ArtifactError):
            validate_event({"t": 1.0, "txn": 4})

    def test_missing_required_field_rejected(self):
        with pytest.raises(ArtifactError, match="missing required"):
            validate_event({"t": 1.0, "kind": "txn.block", "txn": 4})

    def test_non_numeric_time_rejected(self):
        with pytest.raises(ArtifactError):
            validate_event({"t": "soon", "kind": "txn.admit", "txn": 4})
        with pytest.raises(ArtifactError):
            validate_event({"t": True, "kind": "txn.admit", "txn": 4})

    def test_negative_time_rejected(self):
        with pytest.raises(ArtifactError):
            validate_event({"t": -1.0, "kind": "txn.admit", "txn": 4})


class TestValidateJsonl:
    def test_round_trip(self, tmp_path):
        path = write_jsonl(_recorded().events, tmp_path / "t.jsonl",
                           meta={"seed": 7})
        assert validate_jsonl(path) == 5  # 4 events + meta header
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == "trace.meta"
        assert first["family"] == "trace"
        assert first["schema_version"] == TRACE.schema_version
        assert first["payload"] == {"seed": 7}

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ArtifactError, match="empty"):
            validate_jsonl(path)

    def test_missing_meta_header_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"t": 0.0, "kind": "txn.admit", "txn": 1}\n')
        with pytest.raises(ArtifactError, match="trace.meta"):
            validate_jsonl(path)

    def test_wrong_schema_version_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(_header(schema_version=99) + "\n")
        with pytest.raises(ArtifactError, match="schema_version 99"):
            validate_jsonl(path)

    def test_backwards_timestamp_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join([
            _header(),
            json.dumps({"t": 5.0, "kind": "txn.admit", "txn": 1}),
            json.dumps({"t": 4.0, "kind": "txn.admit", "txn": 2}),
        ]) + "\n")
        with pytest.raises(ArtifactError, match="backwards"):
            validate_jsonl(path)

    def test_invalid_json_line_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            validate_jsonl(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ArtifactError, match="expected an object"):
            validate_jsonl(path)
