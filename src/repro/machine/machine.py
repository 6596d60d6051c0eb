"""Facade assembling the shared-nothing machine of Fig. 1.

One control node plus ``num_nodes`` data-processing nodes and the data
placement.  The facade also implements the paper's execution model of one
step: CN sends the transaction to the file's home node, the step is split
into DD cohorts served round-robin on the DD nodes holding the file's
partitions, the cohorts drain back to the home node and the transaction
returns to the CN.
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

    Reads book the quanta the cohorts' nodes have served by now, so they
    see what a quantum-by-quantum service would.
    """

    __slots__ = (
        "file_id", "declared_cost", "cohorts", "done", "_total_objects",
        "_nodes",
    )

    def __init__(
        self,
        file_id: int,
        declared_cost: float,
        cohorts: typing.List[Cohort],
        done: Completion,
        nodes: typing.Sequence[DataProcessingNode],
    ) -> None:
        self.file_id = file_id
        self.declared_cost = declared_cost
        self.cohorts = cohorts
        #: fires once every cohort has scanned its partition
        self.done = done
        #: the machine's nodes, indexed by node id (cohorts do not point
        #: back at their node)
        self._nodes = nodes
        # cohort demands are fixed at construction, so the denominator
        # of fraction_done() -- evaluated per WTPG node per scheduler
        # decision -- is summed once (same association as the property)
        self._total_objects = sum(c.objects for c in cohorts)

    @property
    def total_objects(self) -> float:
        return self._total_objects

    def _scanned(self) -> float:
        """Objects scanned by now: each cohort's node books the quanta it
        has served first."""
        nodes = self._nodes
        now = nodes[0].env.now
        scanned = 0.0
        for cohort in self.cohorts:
            nodes[cohort.node_id].book(now)
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
    """The machine model: CN + DPNs + placement + step executor."""

    def __init__(
        self,
        env: Environment,
        config: MachineConfig,
        placement: typing.Optional[DataPlacement] = None,
    ) -> None:
        self.env = env
        self.config = config
        self.placement = placement or DataPlacement(config)
        self.control_node = ControlNode(env, config)
        self.data_nodes = [
            DataProcessingNode(env, node_id, config.obj_time_ms)
            for node_id in range(config.num_nodes)
        ]

    def begin_step(
        self, txn_id: int, file_id: int, cost: float
    ) -> StepExecution:
        """Create (but do not submit) the cohorts for one step.

        The cohorts share the step's completion event, a countdown that
        fires one hop after the last of them finishes.
        """
        nodes = self.placement.nodes_for(file_id)
        dd = len(nodes)
        per_cohort = cost / dd
        quantum = 1.0 / dd
        done = Completion(self.env, dd, relay=True)
        cohorts = [
            Cohort(
                self.env,
                txn_id=txn_id,
                file_id=file_id,
                node_id=node_id,
                objects=per_cohort,
                quantum_objects=quantum,
                done=done,
            )
            for node_id in nodes
        ]
        return StepExecution(file_id, cost, cohorts, done, self.data_nodes)

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
        for cohort in execution.cohorts:
            self.data_nodes[cohort.node_id].submit(cohort)
        yield execution.done
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
