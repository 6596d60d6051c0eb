"""Unit tests for run/workload specs and their cache keys."""

import dataclasses

import pytest

from repro.machine import MachineConfig
from repro.runner import RunSpec, WorkloadSpec, register_workload, workload_kinds
from repro.runner.spec import paper_workload
from repro.txn.workload import Workload


def spec(**overrides):
    base = dict(
        scheduler="LOW",
        workload=WorkloadSpec.make("exp1", 0.8, num_files=16),
        config=MachineConfig(dd=2),
        seed=3,
        duration_ms=100_000.0,
        warmup_ms=10_000.0,
    )
    base.update(overrides)
    return RunSpec(**base)


class TestWorkloadSpec:
    def test_params_are_canonically_ordered(self):
        a = WorkloadSpec.make("exp3", 1.0, sigma=2.0, num_files=8)
        b = WorkloadSpec.make("exp3", 1.0, num_files=8, sigma=2.0)
        assert a == b

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            WorkloadSpec.make("nope", 1.0)

    def test_at_rate_replaces_only_rate(self):
        a = WorkloadSpec.make("exp1", 0.5, num_files=32)
        b = a.at_rate(1.25)
        assert b.rate_tps == 1.25
        assert b.params == a.params

    def test_build_constructs_workload(self):
        workload = WorkloadSpec.make("exp1", 0.7, num_files=8).build()
        assert isinstance(workload, Workload)
        assert workload.arrival_rate_tps == 0.7

    def test_build_matches_factory(self):
        from repro.txn.workload import experiment3_workload

        built = WorkloadSpec.make("exp3", 1.0, sigma=2.0, num_files=8).build()
        direct = experiment3_workload(1.0, 2.0, num_files=8)
        assert built.name == direct.name
        assert built.error_model.sigma == direct.error_model.sigma

    def test_roundtrip_through_dict(self):
        a = WorkloadSpec.make("exp3", 1.5, sigma=0.5, num_files=64)
        assert WorkloadSpec.from_dict(a.to_dict()) == a

    @pytest.mark.parametrize("kind, params", [
        ("exp1", {"num_files": 8}),
        ("exp2", {}),
        ("exp3", {"num_files": 8, "sigma": 2.0}),
    ])
    def test_paper_workload_keeps_each_kinds_params(self, kind, params):
        # the CLI and the arena both build their workloads here
        built = paper_workload(kind, 0.8, num_files=8, sigma=2.0)
        assert built == WorkloadSpec.make(kind, 0.8, **params)

    def test_register_rejects_duplicates(self):
        assert "exp1" in workload_kinds()
        with pytest.raises(ValueError, match="already registered"):
            register_workload("exp1", lambda rate: None)


class TestRunSpecCacheKey:
    def test_key_is_stable(self):
        assert spec().cache_key() == spec().cache_key()

    def test_key_ignores_object_identity(self):
        a = spec()
        b = RunSpec.from_dict(a.to_dict())
        assert a == b
        assert a.cache_key() == b.cache_key()

    @pytest.mark.parametrize(
        "change",
        [
            dict(scheduler="GOW"),
            dict(seed=4),
            dict(duration_ms=200_000.0),
            dict(warmup_ms=0.0),
            dict(config=MachineConfig(dd=4)),
            dict(workload=WorkloadSpec.make("exp1", 0.9, num_files=16)),
            dict(workload=WorkloadSpec.make("exp1", 0.8, num_files=8)),
        ],
    )
    def test_any_field_change_changes_key(self, change):
        assert spec(**change).cache_key() != spec().cache_key()

    def test_roundtrip_through_dict(self):
        a = spec()
        b = RunSpec.from_dict(a.to_dict())
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_describe_mentions_scheduler_and_rate(self):
        text = spec().describe()
        assert "LOW" in text
        assert "0.8" in text
