"""Unit tests for the wall-clock profiler and its span wrappers."""

import pytest

from repro.obs.profile import LAYERS, PhaseProfiler


def _busy():
    return sum(i for i in range(20_000))  # measurable work


class TestPhaseProfiler:
    def test_wrapped_call_accumulates(self):
        profiler = PhaseProfiler()
        wrapped = profiler.wrap("locks", lambda x: x + 1)
        assert wrapped(1) == 2
        assert profiler.calls["locks"] == 1
        assert profiler.seconds["locks"] >= 0.0
        assert not profiler._stack

    def test_nested_attribution_is_exclusive(self):
        # time inside the inner span must not double-count to the outer
        profiler = PhaseProfiler()
        inner = profiler.wrap("locks", _busy)
        outer = profiler.wrap("sched", lambda: inner())
        assert outer() > 0
        total = sum(profiler.seconds.values())
        # exclusive: outer only owns its own (tiny) segments
        assert profiler.seconds["locks"] > 0.0
        assert profiler.seconds["sched"] < total
        assert profiler.calls == {"sched": 1, "locks": 1}

    def test_report_includes_all_phases_and_other(self):
        profiler = PhaseProfiler()
        profiler.wrap("machine", _busy)()
        report = profiler.report(total_s=1.0)
        assert list(report["phases"]) == list(LAYERS)
        assert report["phases"]["machine"]["calls"] == 1
        assert report["total_s"] == 1.0
        covered = profiler.seconds["machine"]
        assert report["other_s"] == pytest.approx(1.0 - covered, abs=1e-6)

    def test_reset(self):
        profiler = PhaseProfiler()
        profiler.wrap("des", _busy)()
        profiler.reset()
        assert profiler.seconds == {} and profiler.calls == {}

    def test_raising_call_closes_its_span(self):
        def fail():
            raise KeyError("boom")

        profiler = PhaseProfiler()
        with pytest.raises(KeyError):
            profiler.wrap("wtpg", fail)()
        assert not profiler._stack
        assert profiler.calls["wtpg"] == 1


class TestProfiledWrapper:
    def test_relays_yields_sends_and_return_value(self):
        def gen():
            got = yield "a"
            assert got == 1
            yield "b"
            return "done"

        profiler = PhaseProfiler()
        wrapped = profiler.wrap("sched", gen)()
        assert next(wrapped) == "a"
        assert wrapped.send(1) == "b"
        with pytest.raises(StopIteration) as stop:
            next(wrapped)
        assert stop.value.value == "done"
        assert profiler.calls["sched"] == 1  # invocations, not resumes
        assert not profiler._stack  # balanced even across StopIteration

    def test_each_resume_is_a_span(self):
        def gen():
            _busy()
            yield
            _busy()

        profiler = PhaseProfiler()
        outer = profiler.wrap("des", lambda: [_busy() for step in wrapped])
        wrapped = profiler.wrap("machine", gen)()
        outer()
        # the generator's resumes are carved out of the enclosing span
        assert profiler.seconds["machine"] > 0.0
        assert profiler.seconds["des"] > 0.0
        assert not profiler._stack

    def test_relays_thrown_exceptions(self):
        caught = []

        def gen():
            try:
                yield "x"
            except KeyError as exc:
                caught.append(exc)
                yield "recovered"

        wrapped = PhaseProfiler().wrap("sched", gen)()
        assert next(wrapped) == "x"
        assert wrapped.throw(KeyError("boom")) == "recovered"
        assert len(caught) == 1

    def test_propagates_inner_exception(self):
        def gen():
            yield "x"
            raise RuntimeError("inner")

        profiler = PhaseProfiler()
        wrapped = profiler.wrap("machine", gen)()
        next(wrapped)
        with pytest.raises(RuntimeError, match="inner"):
            next(wrapped)
        assert not profiler._stack  # the span closed despite the exception

    def test_close_propagates_to_inner_generator(self):
        closed = []

        def gen():
            try:
                yield "x"
            finally:
                closed.append(True)

        wrapped = PhaseProfiler().wrap("machine", gen)()
        next(wrapped)
        wrapped.close()
        assert closed == [True]


class TestAttachedRun:
    def test_each_cn_slice_is_one_machine_span(self, monkeypatch):
        # GOW pays CN slices from its scheduler (consume) as well as the
        # startup, commit and message slices the executor requests
        from repro.machine import MachineConfig, SharedNothingMachine
        from repro.machine.control_node import ControlNode
        from repro.machine.data_node import DataProcessingNode
        from repro.sim.simulation import Simulation
        from repro.txn import experiment1_workload

        counts = {}

        def counting(cls, name):
            original = getattr(cls, name)

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, counted)

        counting(ControlNode, "request")
        counting(ControlNode, "consume")
        counting(SharedNothingMachine, "begin_step")
        counting(DataProcessingNode, "submit")
        profiler = PhaseProfiler()
        simulation = Simulation(
            MachineConfig(dd=1, num_files=16),
            experiment1_workload(1.0, num_files=16),
            scheduler="GOW", seed=1,
            duration_ms=60_000.0, profiler=profiler,
        )
        simulation.run()
        # a consume queues its slice through the class's request
        assert 0 < counts["consume"] < counts["request"]
        assert profiler.calls["machine"] == (
            counts["request"] + counts["begin_step"] + counts["submit"]
        )
