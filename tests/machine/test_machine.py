"""Integration tests for the SharedNothingMachine step executor."""

import pytest

from repro.des import Environment
from repro.machine import DataPlacement, MachineConfig, SharedNothingMachine


@pytest.fixture
def env():
    return Environment()


def run_step(env, machine, txn_id, file_id, cost):
    result = {}

    def driver(env, machine):
        execution = yield from machine.run_step(txn_id, file_id, cost)
        result["execution"] = execution
        result["finished_at"] = env.now

    env.process(driver(env, machine))
    env.run()
    return result


class TestStepExecution:
    def test_dd1_step_time(self, env):
        """5-object step at DD=1: 2 ms send + 5000 ms scan + 2 ms receive."""
        machine = SharedNothingMachine(env, MachineConfig(dd=1))
        result = run_step(env, machine, txn_id=1, file_id=0, cost=5.0)
        assert result["finished_at"] == pytest.approx(5004.0)

    def test_dd4_divides_scan_work(self, env):
        """5-object step at DD=4: each cohort scans 1.25 objects in parallel."""
        machine = SharedNothingMachine(env, MachineConfig(dd=4))
        result = run_step(env, machine, txn_id=1, file_id=0, cost=5.0)
        assert result["finished_at"] == pytest.approx(2 + 1250 + 2)

    def test_dd8_linear_scan_speedup_when_idle(self, env):
        machine = SharedNothingMachine(env, MachineConfig(dd=8))
        result = run_step(env, machine, txn_id=1, file_id=0, cost=8.0)
        assert result["finished_at"] == pytest.approx(2 + 1000 + 2)

    def test_cohorts_placed_on_declustered_nodes(self, env):
        machine = SharedNothingMachine(env, MachineConfig(dd=4))
        execution = machine.begin_step(txn_id=1, file_id=2, cost=4.0)
        assert [c.node_id for c in execution.cohorts] == [2, 3, 4, 5]
        assert all(c.objects == 1.0 for c in execution.cohorts)
        assert all(c.quantum_objects == 0.25 for c in execution.cohorts)

    def test_zero_cost_step_only_pays_messages(self, env):
        machine = SharedNothingMachine(env, MachineConfig(dd=1))
        result = run_step(env, machine, txn_id=1, file_id=0, cost=0.0)
        assert result["finished_at"] == pytest.approx(4.0)

    def test_step_execution_progress_tracking(self, env):
        machine = SharedNothingMachine(env, MachineConfig(dd=2))
        execution = machine.begin_step(txn_id=1, file_id=0, cost=4.0)
        assert execution.fraction_done() == 0.0
        for cohort in execution.cohorts:
            cohort.scanned = 1.0
        assert execution.fraction_done() == pytest.approx(0.5)
        assert execution.scanned_objects == pytest.approx(2.0)

    def test_zero_cost_execution_counts_as_done(self, env):
        machine = SharedNothingMachine(env, MachineConfig(dd=1))
        execution = machine.begin_step(txn_id=1, file_id=0, cost=0.0)
        assert execution.fraction_done() == 1.0


class TestContention:
    def test_two_steps_same_node_share_bandwidth(self, env):
        """Two concurrent 2-object scans of one node finish in ~4 s total."""
        machine = SharedNothingMachine(env, MachineConfig(dd=1))
        finish = {}

        def driver(env, machine, txn_id, file_id):
            yield from machine.run_step(txn_id, file_id, cost=2.0)
            finish[txn_id] = env.now

        # files 0 and 8 both live on node 0 at DD=1
        env.process(driver(env, machine, 1, 0))
        env.process(driver(env, machine, 2, 8))
        env.run()
        assert finish[1] == pytest.approx(3006.0, rel=0.01)
        assert finish[2] == pytest.approx(4008.0, rel=0.01)

    def test_steps_on_different_nodes_run_in_parallel(self, env):
        machine = SharedNothingMachine(env, MachineConfig(dd=1))
        finish = {}

        def driver(env, machine, txn_id, file_id):
            yield from machine.run_step(txn_id, file_id, cost=2.0)
            finish[txn_id] = env.now

        env.process(driver(env, machine, 1, 0))
        env.process(driver(env, machine, 2, 1))
        env.run()
        # only CN message serialisation separates them
        assert finish[1] == pytest.approx(2006.0, rel=0.01)
        assert finish[2] == pytest.approx(2008.0, rel=0.01)


class TestStatistics:
    def test_mean_dpn_utilisation(self, env):
        machine = SharedNothingMachine(env, MachineConfig(dd=1))

        def driver(env, machine):
            yield from machine.run_step(1, 0, cost=1.0)

        env.process(driver(env, machine))
        env.run(until=env.timeout(1004))
        # node 0 busy ~1000 of 1004 ms; other 7 idle
        assert machine.mean_dpn_utilisation() == pytest.approx(1.0 / 8, rel=0.05)

    def test_reset_statistics_cascades(self, env):
        machine = SharedNothingMachine(env, MachineConfig())

        def driver(env, machine):
            yield from machine.run_step(1, 0, cost=1.0)

        env.process(driver(env, machine))
        env.run()
        machine.reset_statistics()
        env.run(until=env.timeout(env.now + 100))
        assert machine.mean_dpn_utilisation() == pytest.approx(0.0)
        assert machine.control_node.cpu_ms_by_category == {}


class TestCustomPlacement:
    def test_explicit_placement_object(self, env):
        config = MachineConfig(dd=1)
        placement = DataPlacement(config, dd_overrides={0: 8})
        machine = SharedNothingMachine(env, config, placement=placement)
        execution = machine.begin_step(1, 0, cost=8.0)
        assert len(execution.cohorts) == 8

    def test_new_placement_replans_steps(self, env):
        # step plans are kept per (file, cost) and must not outlive the
        # placement they were built for
        config = MachineConfig(dd=1)
        machine = SharedNothingMachine(env, config)
        assert len(machine.begin_step(1, 0, cost=8.0).cohorts) == 1
        machine.placement = DataPlacement(config, dd_overrides={0: 4})
        execution = machine.begin_step(2, 0, cost=8.0)
        assert [c.node_id for c in execution.cohorts] == [0, 1, 2, 3]
        assert all(c.objects == 2.0 for c in execution.cohorts)
        assert execution.total_objects == 8.0

    def test_invalid_step_is_refused_every_time(self, env):
        machine = SharedNothingMachine(env, MachineConfig(dd=1))
        for _ in range(2):
            with pytest.raises(ValueError, match="out of range"):
                machine.begin_step(1, 99, cost=1.0)
            with pytest.raises(ValueError, match="objects must be >= 0"):
                machine.begin_step(1, 0, cost=-1.0)
