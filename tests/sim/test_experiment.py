"""Tests for the operating-point search over run specs."""

import dataclasses
import math

import pytest

from repro.machine import MachineConfig
from repro.runner import RunSpec, WorkloadSpec
from repro.sim import (
    ThroughputRequest,
    best_mpl_result,
    find_throughput_batch,
    run_specs,
)

QUICK = dict(duration_ms=150_000.0, warmup_ms=20_000.0)


def workload(rate=1.0, num_files=16):
    return WorkloadSpec.make("exp1", rate, num_files=num_files)


def spec(scheduler, rate, config=MachineConfig(), seed=1, **window):
    return RunSpec(
        scheduler=scheduler, workload=workload(rate), config=config,
        seed=seed, **(window or QUICK),
    )


def search(scheduler, **settings):
    request = ThroughputRequest(
        scheduler=scheduler, workload=workload(), seed=1, **QUICK, **settings
    )
    return find_throughput_batch([request])[0]


class TestRunAtRate:
    def test_returns_result_for_rate(self):
        [result] = run_specs([spec("NODC", 0.5)])
        assert result.arrival_rate_tps == 0.5
        assert result.completed > 10

    def test_custom_config(self):
        [result] = run_specs([spec("NODC", 0.5, MachineConfig(dd=8))])
        assert result.completed > 10


class TestBisection:
    def test_finds_rate_with_target_rt(self):
        result = search("ASL", target_rt_ms=40_000.0, iterations=5)
        # final run's RT is at or below target, throughput positive
        assert result.mean_response_ms <= 40_000.0
        assert result.throughput_tps > 0.1

    def test_low_target_returns_floor_probe(self):
        """An unreachable target (RT below a single service time) makes
        even the lowest probed rate 'too fast'."""
        result = search(
            "NODC",
            target_rt_ms=1_000.0,  # one scan alone takes > 7 s
            rate_lo=0.05,
            iterations=3,
        )
        assert result.arrival_rate_tps == 0.05

    def test_fast_scheduler_saturates_at_hi(self):
        """If RT stays under target even at rate_hi, rate_hi is returned."""
        result = search(
            "NODC", target_rt_ms=10_000_000.0, rate_hi=0.3, iterations=3
        )
        assert result.arrival_rate_tps == 0.3

    def test_better_scheduler_gets_higher_operating_point(self):
        asl = search("ASL", iterations=5)
        c2pl = search("C2PL", iterations=5)
        assert asl.throughput_tps > c2pl.throughput_tps


class TestSweep:
    def test_sweep_keys_by_scheduler(self):
        names = ["NODC", "ASL"]
        results = dict(zip(names, run_specs([spec(s, 0.4) for s in names])))
        assert set(results) == {"NODC", "ASL"}
        assert results["ASL"].scheduler == "ASL"


class TestC2PLM:
    def test_best_mpl_labelled(self):
        result = best_mpl_result(
            spec("C2PL", 0.6, MachineConfig(dd=1)), mpl_candidates=(2, 8)
        )
        assert result.scheduler == "C2PL+M"
        assert not math.isnan(result.mean_response_ms)

    def test_best_mpl_does_not_mutate_candidate_results(self):
        """Relabelling to C2PL+M must produce a copy, not rewrite the
        winning candidate in place."""
        uncapped = spec("C2PL", 0.6, MachineConfig(dd=1))
        [candidate] = run_specs([
            dataclasses.replace(uncapped, config=MachineConfig(dd=1, mpl=8))
        ])
        tuned = best_mpl_result(uncapped, mpl_candidates=(8,))
        assert candidate.scheduler == "C2PL"
        assert tuned.scheduler == "C2PL+M"
        assert tuned.mean_response_ms == candidate.mean_response_ms
        assert not tuned.fallback

    def test_degenerate_sweep_flags_fallback(self):
        """A horizon too short for any commit leaves every candidate at
        NaN RT; the fallback must be flagged, not silently mislabelled."""
        with pytest.warns(RuntimeWarning, match="committed no transactions"):
            result = best_mpl_result(
                spec(
                    "C2PL", 0.6, MachineConfig(dd=1),
                    duration_ms=2_000.0, warmup_ms=0.0,
                ),
                mpl_candidates=(1,),
            )
        assert result.fallback
        assert result.scheduler == "C2PL+M"
        assert math.isnan(result.mean_response_ms)

    def test_healthy_sweep_not_flagged(self):
        result = best_mpl_result(
            spec("C2PL", 0.6, MachineConfig(dd=1)), mpl_candidates=(2, 8)
        )
        assert not result.fallback

    def test_mpl_control_helps_under_contention(self):
        """The point of +M: bounding MPL avoids blocking chains.  (At a
        short horizon overload censors response times -- only the few
        fast commits are counted -- so the robust comparison is
        completed work, where the MPL-bounded run wins.)"""
        uncapped = spec("C2PL", 1.0, MachineConfig(dd=1))
        [raw] = run_specs([uncapped])
        tuned = best_mpl_result(uncapped, mpl_candidates=(4, 8))
        assert tuned.throughput_tps >= raw.throughput_tps * 0.95
