"""Tests for the scheduler-arena pipeline: specs, artifact, report."""

import pytest

from repro.analysis.arena import (
    ARENA_SCHEMA_VERSION,
    arena_payload,
    arena_specs,
    default_arena_schedulers,
    load_arena,
    render_arena_markdown,
    scheduler_family,
    validate_arena,
    write_arena,
)
from repro.runner import execute_spec

QUICK = dict(duration_ms=20_000.0, warmup_ms=0.0)


def tiny_payload(**kwargs):
    """A real two-cell artifact from short simulations."""
    specs = arena_specs(("NODC", "DGCC"), rates=(0.8,), dds=(1,), **QUICK)
    results = [execute_spec(spec) for spec in specs]
    return specs, arena_payload(
        specs, results, git_sha="deadbeef", created="2026-08-08T00:00:00Z",
        **kwargs,
    )


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
        assert payload["schema"] == ARENA_SCHEMA_VERSION
        assert payload["failed_cells"] == 0
        families = {c["scheduler"]: c["family"] for c in payload["cells"]}
        assert families == {"NODC": "paper", "DGCC": "modern"}
        json_path, md_path = write_arena(payload, tmp_path)
        assert load_arena(json_path) == payload
        assert md_path.read_text(encoding="utf-8").startswith(
            "# Scheduler arena"
        )

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
    def test_rejects_wrong_kind_schema_and_cells(self):
        _specs, payload = tiny_payload()
        for broken in (
            {**payload, "kind": "bench"},
            {**payload, "schema": 999},
            {**payload, "cells": []},
        ):
            with pytest.raises(ValueError):
                validate_arena(broken)

    def test_payload_stamps_top_level_schema_version(self):
        _specs, payload = tiny_payload()
        assert payload["schema_version"] == ARENA_SCHEMA_VERSION

    def test_rejects_unknown_schema_version(self):
        _specs, payload = tiny_payload()
        broken = {**payload, "schema_version": 999, "schema": 999}
        with pytest.raises(ValueError, match="unknown arena schema_version"):
            validate_arena(broken)

    def test_accepts_legacy_schema_key_only(self):
        _specs, payload = tiny_payload()
        legacy = dict(payload)
        del legacy["schema_version"]
        validate_arena(legacy)

    def test_rejects_missing_schema_stamp(self):
        _specs, payload = tiny_payload()
        unstamped = dict(payload)
        del unstamped["schema_version"]
        del unstamped["schema"]
        with pytest.raises(ValueError, match="no schema_version"):
            validate_arena(unstamped)

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
        text = render_arena_markdown(payload)
        assert "## exp1 @ 0.8 TPS, DD=1" in text
        assert text.count("**(best)**") == 1
        assert "## Head-to-head" in text
        assert "commit `deadbeef`" in text


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
