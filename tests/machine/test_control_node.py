"""Unit tests for the control node CPU."""

import pytest

from repro.des import Environment
from repro.machine import ControlNode, MachineConfig, SharedNothingMachine


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
