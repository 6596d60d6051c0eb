"""The artifact envelope: every family round-trips through one writer
and one loader, and each one refuses what is not its own current file.

Documents (ARENA, EXPLAIN, SERIES, STATUS, MANIFEST) go through
:func:`repro.artifact.write` / :func:`repro.artifact.load`; streams
(TRACE, TELEMETRY) carry the envelope as their header line and go
through :func:`repro.artifact.check_stream`.
"""

import json

import pytest

from repro import artifact
from repro.analysis.arena import ARENA
from repro.analysis.explain import EXPLAIN
from repro.obs.events import TRACE
from repro.obs.telemetry import STATUS, TELEMETRY, BatchStatus
from repro.obs.timeseries import SERIES, TimeSeriesSampler
from repro.runner.runner import MANIFEST


def _series():
    sampler = TimeSeriesSampler(interval_ms=5.0)
    sampler.add_probe("a", lambda t: t)
    sampler.advance_to(10.0)
    return sampler.to_dict(meta={"scheduler": "LOW"})


_CELL = {
    "scheduler": "LOW", "family": "paper", "workload": "exp1",
    "rate_tps": 0.8, "dd": 1, "seed": 0, "completed": 3,
    "throughput_tps": 0.5, "mean_response_s": 9.0, "p95_response_s": 12.0,
    "abort_rate": 0.0, "blocks": 1, "delays": 0, "restarts": 0,
    "admission_rejections": 0, "cn_utilisation": 0.1,
    "dpn_utilisation": 0.7,
}
_BUDGET = {
    "queued_ms": 0.0, "blocked_ms": 0.0, "executing_ms": 0.0,
    "wasted_ms": 0.0, "total_ms": 0.0,
    "fractions": {"queued": 0.0, "blocked": 0.0, "executing": 0.0,
                  "wasted": 0.0},
}
_EXPLAIN = {
    "source": {"trace": "t.jsonl"}, "budget": _BUDGET, "hotspots": [],
    "critical_path": [], "blocking_edges": [], "anomalies": [],
    "transactions": [],
}
_STATUS = BatchStatus(
    "b1", "sweep", [{"cell": 0, "key": "k", "label": "c", "until_ms": 1.0}]
).snapshot()
_MANIFEST = {
    "label": "sweep", "batch_id": "b1", "status": "complete",
    "counts": {"total": 0}, "runs": [],
}

#: family -> (a valid payload, a payload its validator rejects, the
#: stream records after the header, the family's file as the parent
#: commit wrote it: no envelope, the version stamped beside the data)
CASES = {
    "arena": (
        ARENA, {"cells": [_CELL], "failed_cells": 0},
        {"cells": [], "failed_cells": 0}, None,
        {"kind": "arena", "schema": 1, "schema_version": 1,
         "cells": [_CELL], "failed_cells": 0},
    ),
    "explain": (
        EXPLAIN, _EXPLAIN,
        {k: v for k, v in _EXPLAIN.items() if k != "budget"}, None,
        {"schema": 1, "kind": "explain", **_EXPLAIN},
    ),
    "series": (
        SERIES, _series(),
        {"series": {"a": {"count": 1, "points": [[1.0]]}}}, None,
        {"schema": 1, **_series()},
    ),
    "status": (
        STATUS, _STATUS, {"batch": "b1"}, None, {"schema": 1, **_STATUS},
    ),
    "manifest": (
        MANIFEST, _MANIFEST, {"label": "sweep"}, None,
        {"created": "2026-10-17T17:59:32+0000", "git_sha": None,
         **_MANIFEST},
    ),
    "trace": (
        TRACE, {"seed": 1}, ["not", "a", "mapping"],
        [{"t": 1.0, "kind": "txn.admit", "txn": 1},
         {"t": 2.0, "kind": "txn.commit", "txn": 1, "response_ms": 1.0}],
        [{"t": 0.0, "kind": "trace.meta", "schema": 1, "seed": 1},
         {"t": 1.0, "kind": "txn.admit", "txn": 1}],
    ),
    "telemetry": (
        TELEMETRY, {"batch": "b1", "label": "sweep", "total": 1},
        {"batch": "b1"},
        [{"ts": 2.0, "kind": "run.cached", "cell": 0},
         {"ts": 1.5, "kind": "batch.done", "status": "complete",
          "wall_s": 0.5}],
        [{"ts": 1.0, "kind": "batch.meta", "schema": 1, "batch": "b1",
          "label": "sweep", "total": 1},
         {"ts": 2.0, "kind": "run.cached", "cell": 0}],
    ),
}

#: each family's file is read as this other family of the same shape
OTHER = {
    "arena": "explain", "explain": "series", "series": "status",
    "status": "manifest", "manifest": "arena",
    "trace": "telemetry", "telemetry": "trace",
}


def family_file(path, name, payload=None, **stamp):
    """``name``'s file at ``path`` with ``payload`` (default: the valid
    one) and any envelope field overridden -- written by hand, so the
    writer's own validation cannot stop a bad file being made."""
    family, good, _bad, records, _legacy = CASES[name]
    document = {
        "family": family.name, "schema_version": family.schema_version,
        "created": "2026-10-18T00:00:00Z", "git_sha": None,
        "payload": good if payload is None else payload,
    }
    document.update(stamp)
    if records is None:
        path.write_text(json.dumps(document, indent=1))
    else:
        header = {family.clock: 0.0, "kind": family.header, **document}
        path.write_text("".join(
            json.dumps(line) + "\n" for line in [header, *records]
        ))
    return path


def read(path, name):
    family, _good, _bad, records, _legacy = CASES[name]
    if records is None:
        return artifact.load(path, family)
    return artifact.check_stream(path, family)


@pytest.mark.parametrize("name", sorted(CASES))
class TestEveryFamily:
    def test_round_trips(self, tmp_path, name):
        family, good, _bad, records, _legacy = CASES[name]
        assert family.name == name
        path = tmp_path / name
        if records is None:
            document = artifact.write(path, family, good)
            assert artifact.load(path, family) == json.loads(
                json.dumps(document)
            )
            assert document["payload"] == good
        else:
            family_file(path, name)
            assert artifact.check_stream(path, family) == 1 + len(records)

    def test_rejects_another_familys_file(self, tmp_path, name):
        path = family_file(tmp_path / "other", OTHER[name])
        with pytest.raises(artifact.ArtifactError):
            read(path, name)

    def test_rejects_a_wrong_schema_version(self, tmp_path, name):
        path = family_file(tmp_path / name, name, schema_version=2)
        with pytest.raises(artifact.ArtifactError, match="schema_version 2"):
            read(path, name)

    def test_rejects_a_payload_its_validator_rejects(self, tmp_path, name):
        family, _good, bad, records, _legacy = CASES[name]
        path = family_file(tmp_path / name, name, payload=bad)
        with pytest.raises(artifact.ArtifactError, match="invalid"):
            read(path, name)
        with pytest.raises(ValueError):
            artifact.envelope(family, bad)

    def test_rejects_the_un_enveloped_format(self, tmp_path, name):
        _family, _good, _bad, records, legacy = CASES[name]
        path = tmp_path / name
        if records is None:
            path.write_text(json.dumps(legacy, indent=1))
        else:
            path.write_text("".join(json.dumps(r) + "\n" for r in legacy))
        with pytest.raises(
            artifact.ArtifactError, match=f"expected family '{name}'"
        ):
            read(path, name)


def test_git_is_asked_once_per_process(tmp_path, monkeypatch):
    calls = []

    def fake_run(argv, **kwargs):
        calls.append(argv)
        raise OSError("no git here")

    monkeypatch.setattr(artifact, "_GIT_SHA", [])
    monkeypatch.setattr(artifact.subprocess, "run", fake_run)
    for index in range(3):
        document = artifact.write(tmp_path / f"m{index}.json", MANIFEST,
                                  _MANIFEST)
        assert document["git_sha"] is None
    assert calls == [["git", "rev-parse", "HEAD"]]
