"""Equivalence of the runner-backed search/experiment paths.

Every spec-based entry point must produce the same numbers whether the
specs run inline, through a cached single-process runner, or across a
worker pool -- and the same numbers as the serial, callable-based
reference forms in :mod:`tests.sim.reference_experiment`.
"""

import math

from repro.experiments import SMOKE, exp1, exp2
from repro.machine import MachineConfig
from repro.runner import ParallelRunner, ResultCache, RunSpec, WorkloadSpec
from repro.sim import (
    ThroughputRequest,
    best_mpl_result,
    find_throughput_batch,
    run_simulation,
    run_specs,
)
from repro.txn import experiment1_workload
from tests.sim import reference_experiment as reference

QUICK = dict(duration_ms=60_000.0, warmup_ms=10_000.0)


def quiet_runner(tmp_path, pool_size=1):
    return ParallelRunner(
        pool_size=pool_size,
        cache=ResultCache(tmp_path / "cache"),
        progress=None,
    )


def factory(rate):
    return experiment1_workload(rate, num_files=16)


class TestFindThroughput:
    def test_spec_path_matches_factory_path(self, tmp_path):
        common = dict(target_rt_ms=40_000.0, iterations=4, seed=1, **QUICK)
        legacy = reference.find_throughput_at_response_time(
            "NODC", factory, **common
        )
        [via_runner] = find_throughput_batch(
            [
                ThroughputRequest(
                    scheduler="NODC",
                    workload=WorkloadSpec.make("exp1", 1.0, num_files=16),
                    **common,
                )
            ],
            quiet_runner(tmp_path),
        )
        assert via_runner.to_dict() == legacy.to_dict()

    def test_lockstep_batch_matches_individual_searches(self, tmp_path):
        requests = [
            ThroughputRequest(
                scheduler=scheduler,
                workload=WorkloadSpec.make("exp1", 1.0, num_files=16),
                target_rt_ms=40_000.0,
                iterations=3,
                seed=1,
                **QUICK,
            )
            for scheduler in ("NODC", "ASL")
        ]
        batched = find_throughput_batch(requests, quiet_runner(tmp_path))
        individual = [
            reference.find_throughput_at_response_time(
                request.scheduler,
                factory,
                target_rt_ms=request.target_rt_ms,
                iterations=request.iterations,
                seed=request.seed,
                **QUICK,
            )
            for request in requests
        ]
        assert [r.to_dict() for r in batched] == [
            r.to_dict() for r in individual
        ]


class TestBestMpl:
    def test_runner_path_matches_legacy(self, tmp_path):
        legacy = reference.best_mpl_result(
            factory,
            MachineConfig(dd=1),
            rate_tps=0.6,
            mpl_candidates=(2, 8),
            seed=1,
            **QUICK,
        )
        via_runner = best_mpl_result(
            RunSpec(
                scheduler="C2PL",
                workload=WorkloadSpec.make("exp1", 0.6, num_files=16),
                config=MachineConfig(dd=1),
                seed=1,
                **QUICK,
            ),
            mpl_candidates=(2, 8),
            runner=quiet_runner(tmp_path),
        )
        assert via_runner.to_dict() == legacy.to_dict()
        assert via_runner.scheduler == "C2PL+M"
        assert not via_runner.fallback


class TestSweep:
    def test_spec_form_matches_callable_form(self, tmp_path):
        names = ["NODC", "C2PL"]
        by_callable = {
            name: run_simulation(name, factory(0.5), seed=1, **QUICK)
            for name in names
        }
        specs = [
            RunSpec(
                scheduler=name,
                workload=WorkloadSpec.make("exp1", 0.5, num_files=16),
                seed=1,
                **QUICK,
            )
            for name in names
        ]
        by_spec = dict(zip(names, run_specs(specs, quiet_runner(tmp_path))))
        assert {k: v.to_dict() for k, v in by_spec.items()} == {
            k: v.to_dict() for k, v in by_callable.items()
        }


class TestExperimentsThroughRunner:
    def test_figure12_identical_with_and_without_runner(self, tmp_path):
        plain = exp2.figure12(SMOKE, schedulers=("NODC", "C2PL"), dds=(1, 2))
        runner = quiet_runner(tmp_path, pool_size=2)
        pooled = exp2.figure12(
            SMOKE, schedulers=("NODC", "C2PL"), dds=(1, 2), runner=runner
        )
        assert pooled.rows == plain.rows

        # the same figure again is served entirely from the cache
        rerun_runner = quiet_runner(tmp_path)
        rerun = exp2.figure12(
            SMOKE, schedulers=("NODC", "C2PL"), dds=(1, 2), runner=rerun_runner
        )
        assert rerun.rows == plain.rows
        assert rerun_runner.cache_hits == rerun_runner.runs_completed
        assert rerun_runner.cache_misses == 0

    def test_table2_identical_with_and_without_runner(self, tmp_path):
        plain = exp1.table2(SMOKE, schedulers=("ASL",), file_counts=(8, 16))
        pooled = exp1.table2(
            SMOKE,
            schedulers=("ASL",),
            file_counts=(8, 16),
            runner=quiet_runner(tmp_path, pool_size=2),
        )
        assert pooled.rows == plain.rows
        for row in pooled.rows:
            assert not math.isnan(row[1])
