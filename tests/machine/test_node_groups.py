"""Node groups: lockstep nodes served as one DPN, replayed exactly.

Nodes that hold the same files, each lying on exactly those nodes, get
equal cohorts at the same instants, so the machine serves them with one
:class:`~repro.machine.DataProcessingNode` (docs/MODEL.md, "Node
groups").  The reference here forces every node into a group of its
own -- per-node service.  Each cell runs under both, traced and
sampled, and every trace record, every sampled point and the result
must agree.
"""

import functools

import pytest

from repro.des import Environment
from repro.machine import (
    DataPlacement,
    MachineConfig,
    SharedNothingMachine,
)
from repro.obs import MemoryRecorder
from repro.obs.timeseries import TimeSeriesSampler
from repro.sim.simulation import Simulation
from repro.txn import experiment1_workload, experiment2_workload


def singleton_groups(self):
    """Per-node service: every node a group of its own."""
    return [(node,) for node in range(self.config.num_nodes)]


def strided(config):
    return DataPlacement(config, striping="strided")


def mixed_dd8_dd4(config):
    """DD = 8 files beside consecutive DD = 4 ones: no node group."""
    return DataPlacement(config, dd_overrides={1: 4, 6: 4, 11: 4})


def strided_with_dd2(config):
    """Strided DD = 4 with file 1 on nodes 1 and 5 only: the even nodes
    stay one group, the odd ones are served one by one."""
    return DataPlacement(config, dd_overrides={1: 2}, striping="strided")


#: cell name -> (scheduler, workload, rate, DD, placement factory)
CELLS = {
    "OPT-exp1-dd8": ("OPT", "exp1", 1.0, 8, None),
    "GOW-exp2-dd8": ("GOW", "exp2", 1.0, 8, None),
    "LOW-LB-exp2-dd8": ("LOW-LB", "exp2", 1.0, 8, None),
    "NODC-exp1-strided-dd4": ("NODC", "exp1", 1.2, 4, strided),
    "NODC-exp1-mixed-dd8-dd4": ("NODC", "exp1", 1.0, 8, mixed_dd8_dd4),
    "NODC-exp1-strided-dd4-dd2": ("NODC", "exp1", 1.2, 4, strided_with_dd2),
}

#: distinct DPN objects each cell's machine serves with
GROUPS = {
    "OPT-exp1-dd8": 1,
    "GOW-exp2-dd8": 1,
    "LOW-LB-exp2-dd8": 1,
    "NODC-exp1-strided-dd4": 2,
    "NODC-exp1-mixed-dd8-dd4": 8,
    "NODC-exp1-strided-dd4-dd2": 5,
}


def run_cell(scheduler, workload, rate, dd, placement):
    if workload == "exp1":
        config = MachineConfig(dd=dd, num_files=16)
        spec = experiment1_workload(rate, num_files=16)
    else:
        config = MachineConfig(dd=dd)
        spec = experiment2_workload(rate)
    recorder = MemoryRecorder()
    sampler = TimeSeriesSampler(interval_ms=1_000.0)
    sim = Simulation(
        config, spec, scheduler=scheduler, seed=5,
        duration_ms=120_000.0, warmup_ms=10_000.0,
        recorder=recorder, sampler=sampler,
    )
    if placement is not None:
        sim.machine.placement = placement(config)
    groups = len({id(node) for node in sim.machine.data_nodes})
    result = sim.run()
    records = [event.to_record() for event in recorder.events]
    return groups, records, sampler.to_dict(), result.to_dict()


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_grouped_service_replays_per_node_service(cell, monkeypatch):
    grouped = run_cell(*CELLS[cell])
    with monkeypatch.context() as patch:
        patch.setattr(DataPlacement, "node_groups", singleton_groups)
        reference = run_cell(*CELLS[cell])
    groups, records, series, result = grouped
    ref_groups, ref_records, ref_series, ref_result = reference
    assert groups == GROUPS[cell]
    assert ref_groups == 8
    assert len(records) > 5_000, f"{cell}: trace too small to pin ties"
    assert len(records) == len(ref_records)
    for index, (got, want) in enumerate(zip(records, ref_records)):
        assert got == want, f"{cell}: record {index} differs"
    assert series == ref_series
    assert result == ref_result


def test_placement_set_before_run_equals_placement_built_in(monkeypatch):
    """Setting ``machine.placement`` after the machine is built (as the
    placement ablation does) rebuilds its groups: the run equals one
    whose machine was built with that placement."""
    import repro.sim.simulation as simulation

    config = MachineConfig(dd=4, num_files=16)

    def run(swap):
        sim = Simulation(
            config, experiment1_workload(1.0, num_files=16),
            scheduler="ASL", seed=3, duration_ms=60_000.0,
            warmup_ms=5_000.0,
        )
        if swap:
            sim.machine.placement = strided(config)
        nodes = sim.machine.data_nodes
        assert nodes[0] is nodes[6] and nodes[1] is nodes[7]
        assert nodes[0] is not nodes[1]
        return sim.run().to_dict()

    swapped = run(swap=True)
    with monkeypatch.context() as patch:
        patch.setattr(
            simulation, "SharedNothingMachine",
            functools.partial(
                SharedNothingMachine, placement=strided(config)
            ),
        )
        built = run(swap=False)
    assert swapped == built


class TestDerivedGroups:
    def groups(self, **kwargs):
        striping = kwargs.pop("striping", "consecutive")
        overrides = kwargs.pop("overrides", None)
        config = MachineConfig(**kwargs)
        return DataPlacement(
            config, dd_overrides=overrides, striping=striping
        ).node_groups()

    def test_dd1_is_one_group_per_node(self):
        assert self.groups(dd=1) == [(node,) for node in range(8)]

    def test_dd_num_nodes_is_one_group(self):
        assert self.groups(dd=8) == [tuple(range(8))]
        assert self.groups(dd=8, num_files=3) == [tuple(range(8))]
        assert self.groups(dd=4, num_nodes=4) == [(0, 1, 2, 3)]

    def test_consecutive_dd4_is_one_group_per_node(self):
        assert self.groups(dd=4, num_files=16) == [
            (node,) for node in range(8)
        ]

    def test_strided_dd4_is_two_groups(self):
        assert self.groups(dd=4, num_files=16, striping="strided") == [
            (0, 2, 4, 6), (1, 3, 5, 7),
        ]

    def test_strided_dd2_is_four_groups(self):
        assert self.groups(dd=2, num_files=16, striping="strided") == [
            (0, 4), (1, 5), (2, 6), (3, 7),
        ]

    def test_a_file_across_groups_splits_them(self):
        # one DD = 8 file among DD = 1 ones, or DD = 4 ones among DD = 8
        singletons = [(node,) for node in range(8)]
        assert self.groups(dd=1, overrides={0: 8}) == singletons
        assert self.groups(dd=8, overrides={3: 4}) == singletons
        # strided DD = 4 with file 1 on {1, 5}: the odd nodes split
        assert self.groups(
            dd=4, num_files=16, striping="strided", overrides={1: 2}
        ) == [(0, 2, 4, 6), (1,), (3,), (5,), (7,)]

    def test_nodes_without_files_stay_single(self):
        assert self.groups(dd=1, num_files=4) == [
            (node,) for node in range(8)
        ]

    def test_layout_gives_submission_order(self):
        config = MachineConfig(dd=8, num_files=16)
        layout = DataPlacement(config).cohort_layout
        rotated = (3, 4, 5, 6, 7, 0, 1, 2)
        assert layout[3] == (rotated, (rotated,))
        config = MachineConfig(dd=4, num_files=16)
        assert DataPlacement(config).cohort_layout[6] == (
            (6, 7, 0, 1), ((6,), (7,), (0,), (1,)),
        )
        assert DataPlacement(config, striping="strided").cohort_layout[
            7
        ] == ((7, 1, 3, 5), ((7, 1, 3, 5),))


class TestGroupedMachine:
    def test_group_members_share_one_dpn(self):
        machine = SharedNothingMachine(Environment(), MachineConfig(dd=8))
        nodes = machine.data_nodes
        assert len(nodes) == 8
        assert all(node is nodes[0] for node in nodes)
        assert nodes[0].members == tuple(range(8))

    def test_one_cohort_per_step_summed_per_node(self):
        env = Environment()
        machine = SharedNothingMachine(env, MachineConfig(dd=8))
        execution = machine.begin_step(txn_id=1, file_id=5, cost=8.0)
        (cohort,) = execution.cohorts
        assert cohort.node_id == 5
        assert cohort.nodes == (5, 6, 7, 0, 1, 2, 3, 4)
        assert cohort.objects == 1.0 and cohort.quantum_objects == 0.125
        assert execution.total_objects == 8.0
        cohort.scanned = 0.5
        assert execution.scanned_objects == 4.0
        assert execution.fraction_done() == 0.5

    def test_group_rejects_a_cohort_for_other_nodes(self):
        env = Environment()
        machine = SharedNothingMachine(
            env, MachineConfig(dd=4, num_files=16),
            placement=strided(MachineConfig(dd=4, num_files=16)),
        )
        single = machine.begin_step(1, 0, 4.0).cohorts[0]
        single.nodes = (0,)
        with pytest.raises(ValueError):
            machine.data_nodes[0].submit(single)

    def test_step_time_and_member_trace(self):
        """An idle DD = 8 step on one group: every member is busy, queued
        and idle in the step's node order, as per-node service emits."""
        env = Environment()
        recorder = MemoryRecorder()
        env.trace = recorder
        machine = SharedNothingMachine(env, MachineConfig(dd=8))

        def driver():
            yield from machine.run_step(1, 2, cost=8.0)

        env.process(driver())
        env.run()
        assert env.now == 2 + 1000 + 2
        order = [2, 3, 4, 5, 6, 7, 0, 1]
        records = [
            (event.kind, event.fields["node"])
            for event in recorder.events if event.kind.startswith("node.")
        ]
        assert records == (
            [("node.queue", node) for node in order]
            + [("node.busy", node) for node in order]
            + [
                record for node in order
                for record in (("node.queue", node), ("node.idle", node))
            ]
        )
        assert machine.mean_dpn_utilisation() == 1000 / 1004
