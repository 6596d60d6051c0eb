"""End-to-end time-series sampling and self-profiling of real runs.

The load-bearing properties, mirroring the tracing contract:

1. observation only -- a sampled and/or profiled run returns
   byte-identical results to the same run bare, for *every* registered
   scheduler (the sampler reads state at boundaries, never schedules
   events or draws randomness);
2. the sampled trajectories are plausible (utilisation in [0, 1],
   cumulative counters monotone) and export/validate cleanly.
"""

import dataclasses
import inspect

import pytest

from repro import artifact
from repro.core.base import Scheduler
from repro.core.locks import LockTable
from repro.core.registry import available
from repro.des.engine import Environment
from repro.machine import MachineConfig
from repro.machine.control_node import ControlNode
from repro.obs.profile import PhaseProfiler
from repro.obs.timeseries import SERIES, TimeSeriesSampler
from repro.sim.simulation import Simulation, run_simulation
from repro.txn.workload import experiment1_workload

QUICK = dict(seed=2, duration_ms=40_000.0)


def _run(scheduler, sampler=None, profiler=None, **overrides):
    settings = dict(QUICK)
    settings.update(overrides)
    return run_simulation(
        scheduler,
        experiment1_workload(1.0),
        MachineConfig(dd=2),
        sampler=sampler,
        profiler=profiler,
        **settings,
    )


class TestObservationOnly:
    @pytest.mark.parametrize("scheduler", available())
    def test_sampled_run_is_byte_identical(self, scheduler):
        bare = _run(scheduler)
        sampler = TimeSeriesSampler(interval_ms=500.0)
        sampled = _run(scheduler, sampler=sampler)
        assert dataclasses.asdict(sampled) == dataclasses.asdict(bare)
        assert sampler.samples_taken == 80  # 40s / 500ms

    @pytest.mark.parametrize("scheduler", available())
    def test_profiled_run_is_byte_identical(self, scheduler):
        bare = _run(scheduler)
        profiled = _run(scheduler, profiler=PhaseProfiler())
        assert dataclasses.asdict(profiled) == dataclasses.asdict(bare)

    def test_sampling_twice_gives_identical_series(self):
        first, second = (TimeSeriesSampler(interval_ms=1_000.0) for _ in "ab")
        _run("GOW", sampler=first)
        _run("GOW", sampler=second)
        assert first.to_dict() == second.to_dict()


class TestSampledTrajectories:
    def _sampled(self, scheduler="LOW"):
        sampler = TimeSeriesSampler(interval_ms=1_000.0)
        _run(scheduler, sampler=sampler)
        return sampler

    def test_machine_and_scheduler_series_present(self):
        sampler = self._sampled()
        names = set(sampler.series)
        assert {
            "cn.util", "cn.queue", "dpn.util.mean", "dpn.queue.total",
            "sched.active_mpl", "sched.blocked", "lock.files_held",
            "sched.aborts.cum", "txn.in_flight", "txn.commits.cum",
            "txn.commit_rate",
        } <= names

    def test_wtpg_size_sampled_for_wtpg_schedulers(self):
        # GOW/LOW/C2PL all maintain a WTPG; plain 2PL tracks waits-for
        # edges instead and NODC has no graph at all
        assert "sched.wtpg_size" in self._sampled("GOW").series
        assert "sched.wtpg_size" in self._sampled("C2PL").series
        assert "sched.wtpg_size" not in self._sampled("2PL").series
        assert "sched.waits_for_edges" in self._sampled("2PL").series
        assert "sched.wtpg_size" not in self._sampled("NODC").series

    def test_utilisations_stay_in_unit_interval(self):
        sampler = self._sampled()
        for name in ("cn.util", "dpn.util.mean"):
            series = sampler.series[name]
            assert 0.0 <= series.minimum and series.maximum <= 1.0 + 1e-9

    def test_utilisations_in_range_across_warmup_reset(self):
        # the warm-up boundary resets every TimeWeighted monitor; the
        # windowed-rate probes must not emit a negative sample there
        sampler = TimeSeriesSampler(interval_ms=1_000.0)
        _run("LOW", sampler=sampler, warmup_ms=10_000.0)
        for name in ("cn.util", "dpn.util.mean", "txn.commit_rate"):
            assert sampler.series[name].minimum >= 0.0, name

    def test_cumulative_commits_monotone(self):
        series = self._sampled().series["txn.commits.cum"]
        values = [v for _t, v in series.points]
        assert values == sorted(values)
        assert values[-1] > 0

    def test_artifact_round_trips(self, tmp_path):
        sampler = self._sampled()
        path = tmp_path / "run.series.json"
        artifact.write(path, SERIES, sampler.to_dict())
        payload = artifact.load(path, SERIES)["payload"]
        assert payload["samples"] == sampler.samples_taken
        assert set(payload["series"]) == set(sampler.series)


def _wrapped_attributes(sim):
    """Names of the functions stored on the run's own objects."""
    scheduler = sim.scheduler
    objects = [sim.env, sim.machine, sim.machine.control_node, sim.metrics,
               scheduler, scheduler.lock_table, getattr(scheduler, "wtpg", None),
               *sim.machine.data_nodes]
    return sorted(
        f"{type(obj).__name__}.{name}"
        for obj in objects if obj is not None
        for name, value in vars(obj).items() if inspect.isfunction(value)
    )


class TestProfilerIntegration:
    def test_phases_attributed(self):
        for scheduler, layers in (("LOW", ("des", "machine", "sched", "locks")),
                                  ("GOW", ("wtpg",))):
            profiler = PhaseProfiler()
            _run(scheduler, profiler=profiler)
            for layer in layers:
                assert profiler.calls.get(layer, 0) > 0, (scheduler, layer)
                assert profiler.seconds[layer] > 0.0, (scheduler, layer)
            assert not profiler._stack  # every span closed

    def test_profiled_run_leaves_classes_untouched(self):
        originals = (Scheduler.acquire, ControlNode.consume, Environment.run,
                     LockTable.grant)
        profiled = Simulation(MachineConfig(), experiment1_workload(1.0),
                              scheduler="GOW", duration_ms=10_000.0,
                              profiler=PhaseProfiler())
        assert "ControlNode.consume" in _wrapped_attributes(profiled)
        profiled.run()
        assert (Scheduler.acquire, ControlNode.consume, Environment.run,
                LockTable.grant) == originals
        fresh = Simulation(MachineConfig(), experiment1_workload(1.0),
                           scheduler="GOW")
        assert _wrapped_attributes(fresh) == []


class TestEngineSamplerHook:
    def test_trailing_samples_taken_at_horizon(self):
        # a run whose events stop early must still sample to the horizon
        sampler = TimeSeriesSampler(interval_ms=1_000.0)
        _run("NODC", sampler=sampler, max_arrivals=1, duration_ms=10_000.0)
        assert sampler.samples_taken == 10

    def test_events_processed_counter(self):
        sim = Simulation(
            MachineConfig(), experiment1_workload(1.0),
            seed=1, duration_ms=20_000.0,
        )
        sim.run()
        assert sim.env.events_processed > 0
