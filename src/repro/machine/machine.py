"""Facade assembling the shared-nothing machine of Fig. 1.

One control node plus ``num_nodes`` data-processing nodes and the data
placement.  The facade also implements the paper's execution model of one
step: CN sends the transaction to the file's home node, the step is split
into DD cohorts served round-robin on the DD nodes holding the file's
partitions, the cohorts drain back to the home node and the transaction
returns to the CN.  Nodes the placement keeps in lockstep are served by
one :class:`DataProcessingNode` (a node group), which takes one cohort
per step for all its members.
"""

from __future__ import annotations

import math
import typing

from repro.des import Environment
from repro.machine.config import MachineConfig
from repro.machine.control_node import ControlNode
from repro.machine.data_node import Cohort, Completion, DataProcessingNode
from repro.machine.placement import DataPlacement


class StepExecution:
    """Live progress of one step's scan (drives WTPG T0-weight updates).

    ``cohorts`` holds one cohort per node group the step reaches, in
    submission order; ``shares`` (default: ``cohorts``) each node's
    cohort in placement order, a group's repeated once per member, so
    sums run one addition per node.  Reads book the quanta the cohorts'
    nodes have served by now, so they see what a quantum-by-quantum
    service would.
    """

    __slots__ = (
        "file_id", "declared_cost", "cohorts", "done", "_total_objects",
        "_nodes", "_shares",
    )

    def __init__(
        self,
        file_id: int,
        declared_cost: float,
        cohorts: typing.List[Cohort],
        done: Completion,
        nodes: typing.Sequence[DataProcessingNode],
        shares: typing.Optional[typing.List[Cohort]] = None,
    ) -> None:
        self.file_id = file_id
        self.declared_cost = declared_cost
        self.cohorts = cohorts
        #: fires once every cohort has scanned its partition
        self.done = done
        #: the machine's nodes, indexed by node id (cohorts do not point
        #: back at their node)
        self._nodes = nodes
        self._shares = cohorts if shares is None else shares
        # cohort demands are fixed at construction, so the denominator
        # of fraction_done() -- evaluated per WTPG node per scheduler
        # decision -- is summed once (same association as the property)
        self._total_objects = sum(c.objects for c in self._shares)

    def submit(self) -> Completion:
        """Submit each cohort to its node (a group's once, to the group);
        returns the step's completion."""
        nodes = self._nodes
        for cohort in self.cohorts:
            nodes[cohort.node_id].submit(cohort)
        return self.done

    @property
    def total_objects(self) -> float:
        return self._total_objects

    def _scanned(self) -> float:
        """Objects scanned by now: each cohort's node books the quanta it
        has served first."""
        nodes = self._nodes
        now = nodes[0].env.now
        for cohort in self.cohorts:
            nodes[cohort.node_id].book(now)
        scanned = 0.0
        for cohort in self._shares:
            scanned += cohort.scanned
        return scanned

    @property
    def scanned_objects(self) -> float:
        return self._scanned()

    def fraction_done(self) -> float:
        """Scanned fraction in [0, 1]; zero-cost steps count as done."""
        total = self._total_objects
        if total <= 0:
            return 1.0
        fraction = self._scanned() / total
        return fraction if fraction < 1.0 else 1.0


class SharedNothingMachine:
    """The machine model: CN + DPNs + placement + step executor.

    ``data_nodes[i]`` is the DPN serving node ``i``: the same object for
    every member of a node group.
    """

    def __init__(
        self,
        env: Environment,
        config: MachineConfig,
        placement: typing.Optional[DataPlacement] = None,
    ) -> None:
        self.env = env
        self.config = config
        self.control_node = ControlNode(env, config)
        self.data_nodes: typing.List[DataProcessingNode] = []
        self.placement = placement or DataPlacement(config)

    @property
    def placement(self) -> DataPlacement:
        """The data placement.  Setting one (before any step runs)
        rebuilds the DPNs for its node groups."""
        return self._placement

    @placement.setter
    def placement(self, placement: DataPlacement) -> None:
        self._placement = placement
        self._layout = placement.cohort_layout
        by_id: typing.Dict[int, DataProcessingNode] = {}
        for members in placement.node_groups():
            node = DataProcessingNode(
                self.env, members[0], self.config.obj_time_ms, members
            )
            by_id.update(dict.fromkeys(members, node))
        # in place: the time-series probes hold the list
        self.data_nodes[:] = [by_id[node_id] for node_id in range(len(by_id))]

    def begin_step(
        self, txn_id: int, file_id: int, cost: float
    ) -> StepExecution:
        """Create (but do not submit) the cohorts for one step: one per
        node group the file lies on.

        The cohorts share the step's completion event, a countdown that
        fires one hop after the last of them finishes.
        """
        layout = self._layout
        if not 0 <= file_id < len(layout):
            raise ValueError(
                f"file {file_id} out of range [0, {len(layout)})"
            )
        nodes, groups = layout[file_id]
        dd = len(nodes)
        per_cohort = cost / dd
        quantum = 1.0 / dd
        env = self.env
        done = Completion(env, len(groups), relay=True)
        cohorts = [
            Cohort(
                env, txn_id, file_id, members[0], per_cohort, quantum,
                done, members,
            )
            for members in groups
        ]
        # a file on a multi-node group lies on that group alone
        shares = cohorts if len(cohorts) == dd else cohorts * dd
        return StepExecution(
            file_id, cost, cohorts, done, self.data_nodes, shares
        )

    def run_step(
        self, txn_id: int, file_id: int, cost: float
    ) -> typing.Generator:
        """Process generator executing one read/write step end to end.

        Returns the :class:`StepExecution` so the caller can inspect
        progress; the generator finishes when all cohorts have scanned
        their partitions and the transaction is back at the CN.
        """
        execution = self.begin_step(txn_id, file_id, cost)
        # CN -> home node: one message send (cohort fan-out at the home
        # node is a DPN control overhead the paper ignores).
        yield from self.control_node.send_message()
        yield execution.submit()
        # home node -> CN: one message receive.
        yield from self.control_node.receive_message()
        return execution

    def timeseries_probes(
        self,
    ) -> typing.Dict[str, typing.Dict[str, typing.Any]]:
        """CN signals plus fleet-level DPN utilisation/queue trajectories."""
        from repro.obs.timeseries import (
            gauge,
            size_hist,
            utilisation_hist,
            windowed_rate,
        )

        nodes = self.data_nodes
        probes = self.control_node.timeseries_probes()
        if not nodes:
            return probes
        probes["dpn.util.mean"] = {
            "probe": windowed_rate(
                lambda t: sum(node.busy.integral(t) for node in nodes),
                scale=1.0 / len(nodes),
            ),
            "unit": "frac",
            "hist": utilisation_hist(),
        }
        probes["dpn.queue.total"] = {
            "probe": gauge(
                lambda: sum(node.active_cohorts for node in nodes)
            ),
            "unit": "cohorts",
            "hist": size_hist(),
        }
        def backlog(t: float) -> float:
            # quanta ending at the boundary itself end in events that
            # fire after the sample, so only those ending before it count
            before = math.nextafter(t, -math.inf)
            for node in nodes:
                node.book(before)
            return float(sum(node.backlog_objects for node in nodes))

        probes["dpn.backlog.objects"] = {
            "probe": backlog,
            "unit": "objects",
            "hist": size_hist(),
        }
        return probes

    def mean_dpn_utilisation(self) -> float:
        """Average utilisation across all data-processing nodes."""
        if not self.data_nodes:
            return 0.0
        return sum(n.utilisation() for n in self.data_nodes) / len(
            self.data_nodes
        )

    def reset_statistics(self) -> None:
        """Warm-up cutoff for every component's statistics."""
        self.control_node.reset_statistics()
        for node in self.data_nodes:
            node.reset_statistics()
