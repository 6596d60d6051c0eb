"""Tests for LOW-LB, the resource-aware LOW extension."""

import pytest

from repro.core import LOWLBScheduler, ResourceAwareWTPG, SerializabilityAuditor
from repro.des import Environment
from repro.machine import ControlNode, MachineConfig, SharedNothingMachine
from repro.machine.placement import DataPlacement
from repro.machine.data_node import Cohort
from repro.sim import run_simulation
from repro.txn import AccessMode, BatchTransaction, Step, experiment1_workload


def make_txn(txn_id, spec):
    steps = [
        Step(f, AccessMode.EXCLUSIVE if op == "w" else AccessMode.SHARED, c)
        for f, op, c in spec
    ]
    return BatchTransaction(txn_id, steps, 0.0)


class TestResourceAwareWTPG:
    def test_rho_zero_equals_plain_weight(self):
        wtpg = ResourceAwareWTPG(lambda n: 100.0, lambda f: [0], rho=0.0)
        txn = make_txn(1, [(0, "w", 5.0)])
        wtpg.add_transaction(txn)
        assert wtpg.t0_weight(1) == pytest.approx(5.0)

    def test_backlog_inflates_t0_weight(self):
        wtpg = ResourceAwareWTPG(lambda n: 3.0, lambda f: [0, 1], rho=1.0)
        txn = make_txn(1, [(0, "w", 5.0)])
        wtpg.add_transaction(txn)
        # mean backlog over the step's nodes = 3.0
        assert wtpg.t0_weight(1) == pytest.approx(8.0)

    def test_rho_scales_backlog(self):
        wtpg = ResourceAwareWTPG(lambda n: 4.0, lambda f: [0], rho=0.5)
        txn = make_txn(1, [(0, "w", 5.0)])
        wtpg.add_transaction(txn)
        assert wtpg.t0_weight(1) == pytest.approx(7.0)

    def test_negative_rho_rejected(self):
        with pytest.raises(ValueError):
            ResourceAwareWTPG(lambda n: 0.0, lambda f: [0], rho=-1.0)

    def test_scratch_copy_keeps_resource_awareness(self):
        """Hypothetical E() evaluations must use the same weighting."""
        wtpg = ResourceAwareWTPG(lambda n: 3.0, lambda f: [0], rho=1.0)
        t1 = make_txn(1, [(0, "w", 5.0)])
        t2 = make_txn(2, [(0, "w", 1.0)])
        wtpg.add_transaction(t1)
        wtpg.add_transaction(t2)
        scratch = wtpg._scratch_copy()
        assert isinstance(scratch, ResourceAwareWTPG)
        assert scratch.t0_weight(1) == wtpg.t0_weight(1)


class TestLOWLBScheduler:
    def test_unbound_scheduler_sees_zero_backlog(self):
        env = Environment()
        config = MachineConfig()
        scheduler = LOWLBScheduler(env, config, ControlNode(env, config))
        assert scheduler.wtpg.node_backlog(0) == 0.0
        assert scheduler.wtpg.nodes_for_file(0) == []

    def test_bound_scheduler_reads_machine_backlog(self):
        env = Environment()
        config = MachineConfig(dd=1)
        machine = SharedNothingMachine(env, config)
        scheduler = LOWLBScheduler(env, config, machine.control_node)
        scheduler.bind_machine(machine)
        cohort = Cohort(env, txn_id=1, file_id=0, node_id=0,
                        objects=4.0, quantum_objects=1.0)
        machine.data_nodes[0].submit(cohort)
        assert scheduler.wtpg.node_backlog(0) == pytest.approx(4.0)
        assert scheduler.wtpg.nodes_for_file(0) == [0]

    def test_placement_set_after_binding_is_the_one_read(self):
        env = Environment()
        config = MachineConfig(dd=1)
        machine = SharedNothingMachine(env, config)
        scheduler = LOWLBScheduler(env, config, machine.control_node)
        scheduler.bind_machine(machine)
        placement = DataPlacement(config, dd_overrides={0: 4})
        machine.placement = placement
        assert scheduler.wtpg.nodes_for_file(0) == placement.nodes_for(0)
        assert len(scheduler.wtpg.nodes_for_file(0)) == 4

    def test_registry_name(self):
        from repro.core import available

        assert "LOW-LB" in available()

    def test_simulation_runs_and_stays_serializable(self):
        auditor = SerializabilityAuditor()
        result = run_simulation(
            "LOW-LB",
            experiment1_workload(0.6),
            MachineConfig(dd=1, num_files=16),
            seed=2,
            duration_ms=300_000,
            auditor=auditor,
        )
        assert result.completed > 20
        assert result.scheduler == "LOW-LB"
        assert auditor.is_serializable(), auditor.find_cycle()

    def test_tracks_plain_low_on_uniform_load(self):
        """With uniform file access the backlog term is symmetric, so
        LOW-LB should perform like LOW (sanity: the extension does not
        wreck the base policy)."""
        kwargs = dict(
            config=MachineConfig(dd=1, num_files=16),
            seed=2,
            duration_ms=300_000,
            warmup_ms=50_000,
        )
        low = run_simulation("LOW", experiment1_workload(0.8), **kwargs)
        lb = run_simulation("LOW-LB", experiment1_workload(0.8), **kwargs)
        assert lb.throughput_tps > low.throughput_tps * 0.8
