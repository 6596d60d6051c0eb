"""Tests for the scheduler-arena pipeline: specs, artifact, report."""

import json
import pathlib

import pytest

from repro import artifact
from repro.analysis.arena import (
    ARENA,
    arena_payload,
    arena_specs,
    default_arena_schedulers,
    render_arena_markdown,
    scheduler_family,
    validate_arena,
)
from repro.analysis.explain import EXPLAIN
from repro.runner import execute_spec

QUICK = dict(duration_ms=20_000.0, warmup_ms=0.0)

#: the committed head-to-head report pair
COMMITTED = pathlib.Path(__file__).resolve().parents[2] / "results" / "arena"


def tiny_payload(**kwargs):
    """A real two-cell payload from short simulations."""
    specs = arena_specs(("NODC", "DGCC"), rates=(0.8,), dds=(1,), **QUICK)
    results = [execute_spec(spec) for spec in specs]
    return specs, arena_payload(specs, results, **kwargs)


def written(tmp_path, payload, **overrides):
    """``payload`` written as an ARENA file, envelope fields overridden."""
    path = tmp_path / "ARENA.json"
    document = artifact.write(path, ARENA, payload)
    document.update(overrides)
    path.write_text(json.dumps(document))
    return path


class TestSpecs:
    def test_matrix_order_is_rate_dd_scheduler(self):
        specs = arena_specs(("NODC", "LOW"), rates=(0.8, 1.2), dds=(1, 4))
        assert len(specs) == 8
        assert [
            (s.workload.rate_tps, s.config.dd, s.scheduler) for s in specs
        ] == [
            (rate, dd, scheduler)
            for rate in (0.8, 1.2)
            for dd in (1, 4)
            for scheduler in ("NODC", "LOW")
        ]
        assert all(s.workload.kind == "exp1" for s in specs)

    def test_exp3_workload_carries_sigma(self):
        specs = arena_specs(
            ("GOW",), rates=(1.0,), dds=(1,), workload="exp3", sigma=2.0
        )
        assert specs[0].workload.kind == "exp3"
        assert dict(specs[0].workload.params)["sigma"] == 2.0

    def test_default_lineup_is_paper_plus_modern(self):
        lineup = default_arena_schedulers()
        for name in ("NODC", "ASL", "C2PL", "GOW", "LOW", "OPT",
                     "DGCC", "CAR", "PRED"):
            assert name in lineup
        assert "C2PL+M" not in lineup  # needs an MPL argument
        assert "2PL" not in lineup  # extension family stays out by default


class TestFamilies:
    def test_parameterised_names_resolve_through_base(self):
        assert scheduler_family("DGCC(B=16)") == "modern"
        assert scheduler_family("PRED") == "modern"
        assert scheduler_family("LOW") == "paper"
        assert scheduler_family("2PL") == "extension"

    def test_unknown_scheduler_raises(self):
        with pytest.raises(KeyError):
            scheduler_family("NOPE")


class TestPayload:
    def test_cells_validate_and_round_trip(self, tmp_path):
        _specs, payload = tiny_payload()
        assert validate_arena(payload) == 2
        assert payload["failed_cells"] == 0
        families = {c["scheduler"]: c["family"] for c in payload["cells"]}
        assert families == {"NODC": "paper", "DGCC": "modern"}
        json_path = tmp_path / "ARENA.json"
        document = artifact.write(json_path, ARENA, payload)
        assert artifact.load(json_path, ARENA) == document
        assert document["payload"] == payload

    def test_failed_cells_are_dropped_with_a_note(self):
        specs = arena_specs(("NODC", "DGCC"), rates=(0.8,), dds=(1,), **QUICK)
        results = [execute_spec(specs[0]), None]
        payload = arena_payload(specs, results)
        assert payload["failed_cells"] == 1
        assert [c["scheduler"] for c in payload["cells"]] == ["NODC"]
        assert "failed cell(s) dropped" in render_arena_markdown(payload)

    def test_length_mismatches_raise(self):
        specs, payload = tiny_payload()
        with pytest.raises(ValueError):
            arena_payload(specs, [None])


class TestValidation:
    def test_rejects_wrong_kind_schema_and_cells(self, tmp_path):
        _specs, payload = tiny_payload()
        path = written(tmp_path, payload)
        with pytest.raises(artifact.ArtifactError, match="family 'arena'"):
            artifact.load(path, EXPLAIN)
        with pytest.raises(ValueError, match="cells"):
            validate_arena({**payload, "cells": []})
        with pytest.raises(ValueError, match="cells"):
            artifact.write(tmp_path / "empty.json", ARENA,
                           {**payload, "cells": []})

    def test_payload_stamps_top_level_schema_version(self, tmp_path):
        # the envelope, not the payload, carries the family and version
        _specs, payload = tiny_payload()
        document = json.loads(written(tmp_path, payload).read_text())
        assert document["family"] == "arena"
        assert document["schema_version"] == ARENA.schema_version
        assert set(payload) == {"cells", "failed_cells"}

    def test_rejects_unknown_schema_version(self, tmp_path):
        _specs, payload = tiny_payload()
        path = written(tmp_path, payload, schema_version=999)
        with pytest.raises(artifact.ArtifactError, match="schema_version"):
            artifact.load(path, ARENA)

    def test_rejects_missing_schema_stamp(self, tmp_path):
        # the un-enveloped layout: family and version stamped in the payload
        _specs, payload = tiny_payload()
        path = tmp_path / "ARENA.json"
        path.write_text(json.dumps(
            {**payload, "kind": "arena", "schema": 1, "schema_version": 1}
        ))
        with pytest.raises(artifact.ArtifactError, match="family 'arena'"):
            artifact.load(path, ARENA)

    def test_rejects_missing_field_and_bad_family(self):
        _specs, payload = tiny_payload()
        missing = {**payload, "cells": [dict(payload["cells"][0])]}
        del missing["cells"][0]["abort_rate"]
        with pytest.raises(ValueError, match="abort_rate"):
            validate_arena(missing)
        bad_family = {**payload, "cells": [dict(payload["cells"][0])]}
        bad_family["cells"][0]["family"] = "retro"
        with pytest.raises(ValueError, match="family"):
            validate_arena(bad_family)


class TestMarkdown:
    def test_report_groups_and_crowns_a_winner(self):
        _specs, payload = tiny_payload()
        text = render_arena_markdown(
            payload, created="2026-08-08T00:00:00Z", git_sha="deadbeef"
        )
        assert "## exp1 @ 0.8 TPS, DD=1" in text
        assert text.count("**(best)**") == 1
        assert "## Head-to-head" in text
        assert "generated 2026-08-08T00:00:00Z, commit `deadbeef`" in text

    def test_committed_report_renders_from_its_artifact(self):
        document = artifact.load(COMMITTED / "ARENA.json", ARENA)
        assert set(document["payload"]) == {"cells", "failed_cells"}
        markdown = render_arena_markdown(
            document["payload"],
            created=document["created"],
            git_sha=document["git_sha"],
        )
        assert markdown == (COMMITTED / "ARENA.md").read_text(encoding="utf-8")


class TestTimeBudgets:
    def budget(self, queued=1.0, blocked=2.0, executing=3.0, wasted=4.0):
        total = queued + blocked + executing + wasted
        return {
            "queued_ms": queued,
            "blocked_ms": blocked,
            "executing_ms": executing,
            "wasted_ms": wasted,
            "total_ms": total,
            "fractions": {
                "queued": queued / total,
                "blocked": blocked / total,
                "executing": executing / total,
                "wasted": wasted / total,
            },
        }

    def test_time_budgets_attach_and_validate(self, tmp_path):
        specs = arena_specs(("NODC", "DGCC"), rates=(0.8,), dds=(1,), **QUICK)
        results = [execute_spec(spec) for spec in specs]
        payload = arena_payload(
            specs, results, time_budgets=[self.budget(), None]
        )
        assert validate_arena(payload) == 2
        assert "time_budget" in payload["cells"][0]
        assert "time_budget" not in payload["cells"][1]
        budget = payload["cells"][0]["time_budget"]
        assert budget["fractions"]["wasted"] == pytest.approx(0.4)

    def test_markdown_why_columns_render_shares(self):
        specs = arena_specs(("NODC",), rates=(0.8,), dds=(1,), **QUICK)
        results = [execute_spec(specs[0])]
        payload = arena_payload(
            specs, results, time_budgets=[self.budget()]
        )
        text = render_arena_markdown(payload)
        assert "| %queued | %blocked | %exec | %wasted |" in text
        assert "| 10% | 20% | 30% | 40% |" in text

    def test_missing_budget_renders_dashes(self):
        specs = arena_specs(("NODC",), rates=(0.8,), dds=(1,), **QUICK)
        results = [execute_spec(specs[0])]
        payload = arena_payload(specs, results)
        assert "| - | - | - | - |" in render_arena_markdown(payload)

    def test_validation_rejects_malformed_budget(self):
        specs = arena_specs(("NODC",), rates=(0.8,), dds=(1,), **QUICK)
        results = [execute_spec(specs[0])]
        payload = arena_payload(
            specs, results, time_budgets=[self.budget()]
        )
        broken = {**payload, "cells": [dict(payload["cells"][0])]}
        broken["cells"][0]["time_budget"] = {"queued_ms": 1.0}
        with pytest.raises(ValueError, match="time_budget"):
            validate_arena(broken)
        not_mapping = {**payload, "cells": [dict(payload["cells"][0])]}
        not_mapping["cells"][0]["time_budget"] = [1, 2]
        with pytest.raises(ValueError, match="time_budget"):
            validate_arena(not_mapping)

    def test_budget_length_mismatch_raises(self):
        specs = arena_specs(("NODC",), rates=(0.8,), dds=(1,), **QUICK)
        results = [execute_spec(specs[0])]
        with pytest.raises(ValueError, match="time_budgets"):
            arena_payload(specs, results, time_budgets=[None, None])
