"""Facade assembling the shared-nothing machine of Fig. 1.

One control node plus ``num_nodes`` data-processing nodes and the data
placement.  The facade also implements the paper's execution model of one
step: CN sends the transaction to the file's home node, the step is split
into DD cohorts served round-robin on the DD nodes holding the file's
partitions, the cohorts drain back to the home node and the transaction
returns to the CN.  Nodes the placement keeps in lockstep are served by
one :class:`DataProcessingNode` (a node group), which takes one cohort
per step for all its members.

A step is one event, :class:`StepExecution`, driven by callbacks: the
send slice's end submits the cohorts, the cohorts' completion requests
the receive slice, and the receive slice's end fires the step inline.
The transaction's process resumes once per step.
"""

from __future__ import annotations

import math
import typing

from repro.des import Environment, Event, Timeout
from repro.machine.config import MachineConfig
from repro.machine.control_node import ControlNode
from repro.machine.data_node import Cohort, Completion, DataProcessingNode
from repro.machine.placement import DataPlacement, Nodes

#: a step's fixed shape, per ``(file_id, cost)``: the node groups it
#: submits to, each cohort's objects, the quantum, the objects summed
#: over the file's nodes, and the nodes each cohort stands for (the
#: group's size on a file that lies on one group, else 1)
_Plan = typing.Tuple[typing.Tuple[Nodes, ...], float, float, float, int]

_new = object.__new__


class StepExecution(Event):
    """One step of a transaction on the machine, and the event that fires
    once the transaction is back at the CN.

    :meth:`start` runs the step as a chain of callbacks; the step fires
    inline at the end of its receive slice, never from the heap.

    ``cohorts`` holds one cohort per node group the step reaches, in
    submission order; ``shares`` (default: ``cohorts``) each node's
    cohort in placement order, a group's repeated once per member, so
    sums run one addition per node.  Reads of the scan's progress
    (which drive WTPG T0-weight updates) book the quanta the cohorts'
    nodes have served by now, so they see what a quantum-by-quantum
    service would.
    """

    __slots__ = (
        "file_id", "declared_cost", "cohorts", "done", "_total_objects",
        "_nodes", "_shares", "_machine",
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
        super().__init__(done.env)
        self.file_id = file_id
        self.declared_cost = declared_cost
        self.cohorts = cohorts
        #: fires one hop after every cohort has scanned its partition
        self.done = done
        #: the machine's nodes, indexed by node id (cohorts do not point
        #: back at their node)
        self._nodes = nodes
        self._shares = cohorts if shares is None else shares
        # cohort demands are fixed at construction, so the denominator
        # of fraction_done() -- evaluated per WTPG node per scheduler
        # decision -- is summed once (same association as the property)
        self._total_objects = sum(c.objects for c in self._shares)
        #: the machine whose CN carries the step's messages: only
        #: :meth:`start` needs it, and only steps built by
        #: :meth:`SharedNothingMachine.begin_step` have one
        self._machine: typing.Optional["SharedNothingMachine"] = None

    # -- the step's hops ------------------------------------------------------

    def start(self) -> "StepExecution":
        """Send the transaction to the file's home node: one CN message.

        Returns this step, which fires once the scan is done and the
        transaction's message back has been received at the CN.
        """
        machine = self._machine
        machine._steps[self] = None
        sent = machine.control_node.request(machine._msgtime_ms, "message")
        if sent is None:
            self._sent(None)
        else:
            sent.callbacks.append(self._sent)
        return self

    def _sent(self, _sent: typing.Optional[Event]) -> None:
        """The send slice ends: the message crosses the network, if it
        takes time, and the cohorts start."""
        machine = self._machine
        machine.control_node.messages.increment()
        if machine._netdelay_ms > 0:
            wire = Timeout(self.env, machine._netdelay_ms)
            wire.callbacks.append(self._scan)
        else:
            self._scan(None)

    def _scan(self, _wire: typing.Optional[Event]) -> None:
        self.done.callbacks.append(self._receive)
        self.submit()

    def _receive(self, _done: Event) -> None:
        """The scan is done: the home node's message back to the CN."""
        machine = self._machine
        received = machine.control_node.request(
            machine._msgtime_ms, "message"
        )
        if received is None:
            self._back(None)
        else:
            received.callbacks.append(self._back)

    def _back(self, _received: typing.Optional[Event]) -> None:
        """The receive slice ends: the step fires inline, so whoever
        waits on it runs in this slice's callbacks, as it would have
        run in its own resume at the slice's end."""
        machine = self._machine
        machine.control_node.messages.increment()
        del machine._steps[self]
        callbacks, self.callbacks = self.callbacks, []
        self._value = None
        self._triggered = self._processed = True
        for callback in callbacks:
            callback(self)

    def submit(self) -> Completion:
        """Submit each cohort to its node (a group's once, to the group);
        returns the step's completion."""
        nodes = self._nodes
        for cohort in self.cohorts:
            nodes[cohort.node_id].submit(cohort)
        return self.done

    # -- progress -------------------------------------------------------------

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
        self._msgtime_ms = config.msgtime_ms
        self._netdelay_ms = config.netdelay_ms
        #: steps started and not yet back at the CN (dropped by
        #: :meth:`close`)
        self._steps: typing.Dict[StepExecution, None] = {}
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
        #: step plans by ``(file_id, cost)``, built for this placement
        self._plans: typing.Dict[typing.Tuple[int, float], _Plan] = {}
        by_id: typing.Dict[int, DataProcessingNode] = {}
        for members in placement.node_groups():
            node = DataProcessingNode(
                self.env, members[0], self.config.obj_time_ms, members
            )
            by_id.update(dict.fromkeys(members, node))
        # in place: the time-series probes hold the list
        self.data_nodes[:] = [by_id[node_id] for node_id in range(len(by_id))]

    def _plan(self, file_id: int, cost: float) -> _Plan:
        """Validate and record the fixed shape of a step on ``file_id``
        of total ``cost``."""
        layout = self._layout
        if not 0 <= file_id < len(layout):
            raise ValueError(
                f"file {file_id} out of range [0, {len(layout)})"
            )
        nodes, groups = layout[file_id]
        dd = len(nodes)
        per_cohort = cost / dd
        if per_cohort < 0:
            raise ValueError(f"cohort objects must be >= 0, got {per_cohort}")
        # a file on a multi-node group lies on that group alone, so its
        # one cohort stands for a share on each of the file's nodes
        plan = self._plans[(file_id, cost)] = (
            groups, per_cohort, 1.0 / dd, sum([per_cohort] * dd),
            dd // len(groups),
        )
        return plan

    def begin_step(
        self, txn_id: int, file_id: int, cost: float
    ) -> StepExecution:
        """Create (but do not start) one step: one cohort per node group
        the file lies on.

        The cohorts share the step's completion event, a countdown that
        fires one hop after the last of them finishes.
        """
        plan = self._plans.get((file_id, cost))
        if plan is None:
            plan = self._plan(file_id, cost)
        groups, per_cohort, quantum, total, repeat = plan
        env = self.env
        done = Completion(env, len(groups), relay=True)
        cohorts = []
        for members in groups:
            # slots assigned directly: the plan has validated the values
            cohort = _new(Cohort)
            cohort.txn_id = txn_id
            cohort.file_id = file_id
            cohort.node_id = members[0]
            cohort.nodes = members
            cohort.objects = per_cohort
            cohort.scanned = 0.0
            cohort.quantum_objects = quantum
            cohort.done = done
            cohort._turns = 0
            cohort._last = quantum
            cohorts.append(cohort)
        step = _new(StepExecution)
        step.env = env
        step.callbacks = []
        step._value = Event._PENDING
        step._ok = True
        step._triggered = step._processed = False
        step.file_id = file_id
        step.declared_cost = cost
        step.cohorts = cohorts
        step.done = done
        step._nodes = self.data_nodes
        step._shares = cohorts * repeat if repeat > 1 else cohorts
        step._total_objects = total
        step._machine = self
        return step

    def run_step(
        self, txn_id: int, file_id: int, cost: float
    ) -> typing.Generator:
        """Process generator executing one read/write step end to end.

        Returns the :class:`StepExecution` so the caller can inspect
        progress; the generator finishes when all cohorts have scanned
        their partitions and the transaction is back at the CN.
        """
        execution = self.begin_step(txn_id, file_id, cost)
        yield execution.start()
        return execution

    def close(self) -> None:
        """Tear down a finished run: drop the pending CN slices and the
        steps not yet back at the CN.

        A started step and its cohorts' completion refer to each other,
        and a pending slice and the CN do too; dropping the links lets
        reference counting free the run.
        """
        self.control_node.close()
        steps, self._steps = self._steps, {}
        for step in steps:
            step.done.callbacks.clear()

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
