"""Unit tests for the control node CPU."""

import pytest

from repro.des import Environment
from repro.machine import ControlNode, MachineConfig, SharedNothingMachine

from tests.machine.reference_cn import ReferenceControlNode


@pytest.fixture
def env():
    return Environment()


def run_consumers(env, cn, costs, category="x"):
    finish_times = []

    def job(env, cn, cost):
        yield from cn.consume(cost, category)
        finish_times.append(env.now)

    for cost in costs:
        env.process(job(env, cn, cost))
    env.run()
    return finish_times


class TestConsume:
    def test_single_job_takes_its_cost(self, env):
        cn = ControlNode(env, MachineConfig())
        assert run_consumers(env, cn, [7.0]) == [7.0]

    def test_jobs_serialise_fifo(self, env):
        cn = ControlNode(env, MachineConfig())
        assert run_consumers(env, cn, [2.0, 3.0, 5.0]) == [2.0, 5.0, 10.0]

    def test_zero_cost_is_free(self, env):
        cn = ControlNode(env, MachineConfig())
        assert run_consumers(env, cn, [0.0]) == [0.0]

    def test_negative_cost_rejected(self, env):
        cn = ControlNode(env, MachineConfig())

        def job(env, cn):
            yield from cn.consume(-1.0)

        env.process(job(env, cn))
        with pytest.raises(ValueError):
            env.run()

    def test_nan_cost_rejected(self, env):
        cn = ControlNode(env, MachineConfig())
        with pytest.raises(ValueError, match="CPU cost must be >= 0"):
            cn.request(float("nan"))
        assert cn.queue_length == 0 and cn.busy.value == 0.0

    def test_negative_zero_cost_queues_nothing(self, env):
        cn = ControlNode(env, MachineConfig())
        assert cn.request(-0.0) is None
        assert cn.request(0) is None
        assert env.peek() == float("inf")
        assert cn.busy.value == 0.0

    def test_cpu_speed_scales_costs(self, env):
        cn = ControlNode(env, MachineConfig(cpu_speed_mips=2.0))  # half speed
        assert run_consumers(env, cn, [10.0]) == [20.0]

    def test_cost_accounting_by_category(self, env):
        cn = ControlNode(env, MachineConfig())
        run_consumers(env, cn, [2.0, 3.0], category="startup")
        assert cn.cpu_ms_by_category["startup"] == pytest.approx(5.0)


class TestMessages:
    """A step's CN messages: one sent before its scan (plus the wire
    delay), one received after it."""

    @staticmethod
    def run_step(env, config, cost=0.0):
        machine = SharedNothingMachine(env, config)
        marks = {}

        def job():
            execution = machine.begin_step(1, 0, cost)
            execution.done.callbacks.append(
                lambda _event: marks.setdefault("scanned", env.now)
            )
            yield execution.start()
            marks["back"] = env.now

        env.process(job())
        env.run()
        return machine.control_node, marks

    def test_send_costs_msgtime(self, env):
        cn, marks = self.run_step(env, MachineConfig())
        assert marks["scanned"] == pytest.approx(2.0)
        assert marks["back"] == pytest.approx(4.0)
        assert cn.messages.total == 2
        assert cn.cpu_ms_by_category == {"message": pytest.approx(4.0)}

    def test_netdelay_added_to_send(self, env):
        _cn, marks = self.run_step(env, MachineConfig(netdelay_ms=50.0))
        assert marks["scanned"] == pytest.approx(52.0)

    def test_receive_costs_msgtime_without_delay(self, env):
        config = MachineConfig(netdelay_ms=50.0)
        _cn, marks = self.run_step(env, config, cost=1.0)
        assert marks["scanned"] == pytest.approx(52.0 + config.obj_time_ms)
        assert marks["back"] - marks["scanned"] == pytest.approx(2.0)


class TestUtilisation:
    def test_fully_busy(self, env):
        cn = ControlNode(env, MachineConfig())

        def job(env, cn):
            yield from cn.consume(100.0)

        env.process(job(env, cn))
        env.run(until=env.timeout(100))
        assert cn.utilisation() == pytest.approx(1.0)

    def test_half_busy(self, env):
        cn = ControlNode(env, MachineConfig())

        def job(env, cn):
            yield from cn.consume(50.0)

        env.process(job(env, cn))
        env.run(until=env.timeout(100))
        assert cn.utilisation() == pytest.approx(0.5)

    def test_reset_statistics(self, env):
        cn = ControlNode(env, MachineConfig())

        def job(env, cn):
            yield from cn.consume(50.0)

        env.process(job(env, cn))
        env.run(until=env.timeout(50))
        cn.reset_statistics()
        assert cn.cpu_ms_by_category == {}
        env.run(until=env.timeout(150))
        assert cn.utilisation() == pytest.approx(0.0)


class TestGrantWithoutHop:
    """The CPU takes a slice in :meth:`ControlNode.request` when idle and
    in the previous slice's end otherwise: no same-instant hop."""

    def test_untraced_slices_call_nothing_at_their_grant(
        self, env, monkeypatch
    ):
        cn = ControlNode(env, MachineConfig())
        calls = []
        call_at = env.call_at

        def spy(when, fn, arg):
            calls.append(fn)
            call_at(when, fn, arg)

        monkeypatch.setattr(env, "call_at", spy)
        ends = []

        def on_idle_cpu(_slice):
            # _finish has made the CPU idle: the next slice is taken at once
            ends.append(env.now)
            if len(ends) < 3:
                cn.request(1.0, "idle").callbacks.append(on_idle_cpu)

        cn.request(1.0, "idle").callbacks.append(on_idle_cpu)
        env.run()
        # two queue behind the first and are taken in its _finish and
        # then the second's
        for _ in range(3):
            cn.request(2.0, "busy").callbacks.append(
                lambda _slice: ends.append(env.now)
            )
        assert cn.queue_length == 2
        env.run()
        assert ends == [1.0, 2.0, 3.0, 5.0, 7.0, 9.0]
        assert calls == []
        assert cn.cpu_ms_by_category == {"idle": 3.0, "busy": 6.0}
        assert cn.busy.integral(env.now) == 9.0

    @pytest.mark.parametrize(
        "cn_class", [ControlNode, ReferenceControlNode],
        ids=["served", "reference"],
    )
    def test_timeout_made_before_a_queued_grant_fires_before_its_end(
        self, env, cn_class
    ):
        # B queues at 0 behind A and is taken at 4, when A ends; a
        # Timeout made at 3 lands at 6, on B's end.  B's end goes on the
        # heap at 4, after the Timeout, so the Timeout fires first
        cn = cn_class(env, MachineConfig())
        order = []
        cn.request(4.0, "a")
        cn.request(2.0, "b").callbacks.append(
            lambda _slice: order.append(("b", env.now))
        )

        def timer():
            yield env.timeout(3.0)
            env.timeout(3.0).callbacks.append(
                lambda _timeout: order.append(("timeout", env.now))
            )

        env.process(timer())
        env.run()
        assert order == [("timeout", 6.0), ("b", 6.0)]
