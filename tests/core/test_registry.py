"""Tests for the scheduler registry."""

import pytest

from repro.core import (
    C2PLScheduler,
    LOWScheduler,
    PAPER_SCHEDULERS,
    available,
    create,
    register,
)
from repro.core.base import Scheduler
from repro.core.registry import (
    FAMILIES,
    MODERN_SCHEDULERS,
    ROSTER,
    entries,
    family_of,
    unregister,
)
from repro.des import Environment
from repro.machine import ControlNode, MachineConfig
from repro.schedulers.modern import (
    ConflictPredictScheduler,
    ConflictReorderScheduler,
    DGCCScheduler,
)


@pytest.fixture
def ctx():
    env = Environment()
    config = MachineConfig()
    return env, config, ControlNode(env, config)


class TestRegistry:
    def test_paper_schedulers_all_registered(self):
        for name in PAPER_SCHEDULERS:
            assert name in available()

    def test_modern_schedulers_all_registered(self):
        for name in MODERN_SCHEDULERS:
            assert name in available()

    def test_create_by_name(self, ctx):
        scheduler = create("C2PL", *ctx)
        assert isinstance(scheduler, C2PLScheduler)

    def test_name_is_case_insensitive(self, ctx):
        assert isinstance(create("c2pl", *ctx), C2PLScheduler)

    def test_default_low_uses_k2(self, ctx):
        scheduler = create("LOW", *ctx)
        assert isinstance(scheduler, LOWScheduler)
        assert scheduler.k == 2

    def test_parameterised_low(self, ctx):
        scheduler = create("LOW(K=5)", *ctx)
        assert scheduler.k == 5
        assert scheduler.name == "LOW(K=5)"

    def test_low_k_zero(self, ctx):
        assert create("LOW(K=0)", *ctx).k == 0

    def test_c2pl_plus_m_alias(self, ctx):
        assert isinstance(create("C2PL+M", *ctx), C2PLScheduler)

    def test_unknown_name_raises(self, ctx):
        with pytest.raises(KeyError):
            create("FANCY", *ctx)

    def test_register_custom(self, ctx):
        class Custom(C2PLScheduler):
            name = "CUSTOM"

        register("CUSTOM", Custom)
        try:
            assert isinstance(create("CUSTOM", *ctx), Custom)
        finally:
            unregister("CUSTOM")

    def test_name_with_a_space_is_one_key(self, ctx):
        register("My Sched", C2PLScheduler, family="extension")
        try:
            assert "MYSCHED" in available()
            assert isinstance(create("My Sched", *ctx), C2PLScheduler)
            assert isinstance(create("mysched", *ctx), C2PLScheduler)
            assert family_of("my sched") == "extension"
        finally:
            unregister("My Sched")
        assert "MYSCHED" not in available()

    def test_every_roster_entry_builds_its_scheduler(self, ctx):
        for entry in ROSTER:
            scheduler = create(entry.name, *ctx)
            assert isinstance(scheduler, Scheduler), entry.name

    def test_parameter_of_another_entry_raises(self, ctx):
        with pytest.raises(KeyError, match="LOW"):
            create("LOW(Q=3)", *ctx)
        with pytest.raises(KeyError, match="NODC"):
            create("NODC(K=1)", *ctx)

    def test_available_sorted(self):
        names = available()
        assert names == sorted(names)


class TestDuplicateRegistration:
    def test_duplicate_name_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register("C2PL", C2PLScheduler)

    def test_duplicate_allowed_with_replace(self, ctx):
        class Stub(C2PLScheduler):
            name = "STUB"

        register("STUB", C2PLScheduler)
        try:
            register("STUB", Stub, replace=True)
            assert isinstance(create("STUB", *ctx), Stub)
        finally:
            unregister("STUB")

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="unknown family"):
            register("WEIRD", C2PLScheduler, family="vintage")


class TestFamilies:
    def test_every_entry_has_known_family_and_description(self):
        for entry in entries():
            assert entry.family in FAMILIES
            assert entry.description

    def test_entries_grouped_paper_first(self):
        families = [entry.family for entry in entries()]
        rank = {family: i for i, family in enumerate(FAMILIES)}
        assert families == sorted(families, key=rank.__getitem__)

    def test_family_of(self):
        assert family_of("GOW") == "paper"
        assert family_of("2PL") == "extension"
        for name in MODERN_SCHEDULERS:
            assert family_of(name) == "modern"


class TestModernCreation:
    def test_create_modern_by_name(self, ctx):
        assert isinstance(create("DGCC", *ctx), DGCCScheduler)
        assert isinstance(create("CAR", *ctx), ConflictReorderScheduler)
        assert isinstance(create("PRED", *ctx), ConflictPredictScheduler)

    def test_parameterised_dgcc(self, ctx):
        scheduler = create("DGCC(B=16)", *ctx)
        assert isinstance(scheduler, DGCCScheduler)
        assert scheduler.batch_size == 16
        assert scheduler.name == "DGCC(B=16)"

    def test_parameterised_car(self, ctx):
        scheduler = create("CAR(Q=2)", *ctx)
        assert isinstance(scheduler, ConflictReorderScheduler)
        assert scheduler.num_queues == 2
        assert scheduler.name == "CAR(Q=2)"

    def test_parameterised_pred(self, ctx):
        scheduler = create("PRED(T=0.75)", *ctx)
        assert isinstance(scheduler, ConflictPredictScheduler)
        assert scheduler.threshold == 0.75
        assert scheduler.name == "PRED(T=0.75)"

    def test_bad_parameters_raise(self, ctx):
        with pytest.raises(ValueError):
            create("DGCC(B=0)", *ctx)
        with pytest.raises(ValueError):
            create("CAR(Q=0)", *ctx)
        with pytest.raises(ValueError):
            create("PRED(T=1.5)", *ctx)
