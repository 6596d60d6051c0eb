"""Data-processing nodes (DPNs) with round-robin cohort service.

Per the paper's execution model: a step of a transaction on a file
declustered over DD nodes is split into DD cohorts; each DPN serves its
resident cohorts in a round-robin manner, the service quantum being the
scan of 1/DD object (so a quantum lasts ``obj_time / DD`` ms).  The only
DPN cost is I/O (``ObjTime`` per object); cohort-initiation control
overhead is ignored, as in the paper.

Service is event-sparse.  Between ring changes (a submission, or a
cohort finishing) round-robin with a fixed quantum is deterministic, so
a busy node keeps one pending timer: the end of the next quantum that
*finishes* a cohort.  The quanta before it are replayed with the float
operations a quantum-by-quantum service performs, in the same order
(``t = t + q * obj_time`` per quantum, ``scanned += q`` per turn), so
every completion time is bit for bit the one that service computes.
Those quanta are booked only when something needs the node's state: a
submission, a completion, or a read (``backlog_objects``,
:meth:`~repro.machine.machine.StepExecution.fraction_done`, the
time-series gauges).  A submission re-arms the timer only when it moves
the completion; a replaced timer is recognised as stale when it fires,
by the generation number it carries.  A step's cohorts share one
:class:`Completion`.  The timer, an idle node's start hop and a step's
completion relay are :meth:`~repro.des.Environment.call_at` calls (as
is every zero-delay trigger), so those due at one instant share one
heap entry.  docs/MODEL.md states the
booking rule for reads and the completion-order rule.

One node object may serve a *group* of nodes that the placement keeps
in lockstep (:meth:`~repro.machine.placement.DataPlacement.node_groups`):
a step then submits one cohort to the group, standing for an equal
cohort on every member, and the group runs one ring and one timer for
all of them.  Its trace records are still emitted once per member, in
the order per-node service emits them.
"""

from __future__ import annotations

import collections
import itertools
import math
import typing

from repro.des import Environment, Event
from repro.des.events import trigger
from repro.des.monitor import TimeWeighted

#: tolerance when deciding a cohort has scanned all its objects
_EPSILON = 1e-9

_INF = math.inf


class Completion(Event):
    """Fires once ``cohorts`` cohorts have finished their scans.

    With ``relay`` (a step's cohorts) it fires one hop after the last
    one finishes -- where that cohort's own event and an ``AllOf`` over
    the step's cohorts would fire -- so same-instant ties resolve alike.
    Both hops, the relay (a plain :func:`~repro.des.events.trigger`)
    and the fire it makes, are calls in the instant's batch.
    """

    __slots__ = ("_pending", "_relay")

    def __init__(
        self, env: Environment, cohorts: int = 1, relay: bool = False
    ) -> None:
        super().__init__(env)
        self._pending = cohorts
        self._relay = relay

    def count_down(self) -> None:
        """Book one finished cohort."""
        self._pending -= 1
        if self._pending:
            return
        if not self._relay:
            self.succeed()
            return
        env = self.env
        env.call_at(env._now, trigger, self)


class Cohort:
    """One node's share of a step's scan.

    ``objects`` is the cohort's total I/O demand in objects (step cost /
    DD) and ``quantum_objects`` the round-robin service unit (1/DD object).
    ``scanned`` is current as of the node's last booking.  A cohort for a
    node group stands for one such share on each node of ``nodes``
    (members in the step's submission order; ``node_id`` is the first).
    """

    __slots__ = (
        "txn_id",
        "file_id",
        "node_id",
        "nodes",
        "objects",
        "scanned",
        "quantum_objects",
        "done",
        "_turns",
        "_last",
    )

    def __init__(
        self,
        env: Environment,
        txn_id: int,
        file_id: int,
        node_id: int,
        objects: float,
        quantum_objects: float,
        done: typing.Optional[Completion] = None,
        nodes: typing.Optional[typing.Tuple[int, ...]] = None,
    ) -> None:
        if objects < 0:
            raise ValueError(f"cohort objects must be >= 0, got {objects}")
        if quantum_objects <= 0:
            raise ValueError(
                f"quantum must be > 0 objects, got {quantum_objects}"
            )
        self.txn_id = txn_id
        self.file_id = file_id
        self.node_id = node_id
        self.nodes = (node_id,) if nodes is None else nodes
        self.objects = objects
        self.scanned = 0.0
        self.quantum_objects = quantum_objects
        #: fires when the cohort's whole scan is complete; a step's
        #: cohorts share the step's completion, which fires once all are
        self.done = Completion(env) if done is None else done
        #: turns still to serve, the one in service included, and the
        #: objects the last one scans (both found on submission)
        self._turns = 0
        self._last = quantum_objects

    @property
    def remaining(self) -> float:
        """Objects still to scan."""
        return max(0.0, self.objects - self.scanned)

    @property
    def finished(self) -> bool:
        return self.remaining <= _EPSILON

    def __repr__(self) -> str:
        return (
            f"<Cohort txn={self.txn_id} file={self.file_id} "
            f"node={self.node_id} {self.scanned:.3g}/{self.objects:.3g}>"
        )


def _service_turns(
    objects: float, quantum: float, scanned: float = 0.0
) -> typing.Tuple[int, float]:
    """Turns a cohort's scan takes from ``scanned`` (0 when done), and the
    objects its last turn scans.

    Replays the turns one at a time with the additions service books, so
    the count is exactly what booking will see.  Every turn but the last
    scans a whole quantum; the last scans what is left, if less.
    """
    turns = 0
    remaining = objects - scanned
    while remaining > _EPSILON:
        turns += 1
        if remaining < quantum:
            if objects - (scanned + remaining) > _EPSILON:
                raise ValueError(
                    f"a cohort of {objects} objects does not finish on "
                    f"its short last quantum"
                )
            return turns, remaining
        scanned += quantum
        remaining = objects - scanned
    return turns, quantum


class DataProcessingNode:
    """A DPN serving cohorts round-robin in quanta of 1/DD object.

    ``members`` are the node ids it serves as one, in order, starting
    at ``node_id`` (default: ``node_id`` alone).
    """

    def __init__(
        self,
        env: Environment,
        node_id: int,
        obj_time_ms: float,
        members: typing.Sequence[int] = (),
    ) -> None:
        if obj_time_ms <= 0:
            raise ValueError(f"obj_time_ms must be > 0, got {obj_time_ms}")
        self.env = env
        self.node_id = node_id
        self.members = tuple(members) or (node_id,)
        #: the members in the order per-node service would emit their
        #: trace records: that of the submission that last armed the
        #: timer or scheduled the start
        self._order = self.members
        self.obj_time_ms = obj_time_ms
        self._trace = env.trace
        #: resident cohorts in rotation order; while the node serves,
        #: ``_ring[0]`` is the cohort in its quantum
        self._ring: typing.Deque[Cohort] = collections.deque()
        #: service has started (a start may be pending while this is False)
        self._serving = False
        #: not serving and no start pending
        self._idle = True
        #: start of the quantum in service: the end of the last booked one
        self._t = 0.0
        #: end of the quantum in service while it is not the armed final
        #: one (then booking it is due), else ``inf``
        self._next = _INF
        #: whole quanta still to book before the armed final quantum; the
        #: cohort it finishes is on its last turn while this is below the
        #: ring's length (its final quantum comes within this round)
        self._before_final = 0
        #: the armed timer's generation; a timer carrying another is stale
        #: (held as a number, so the node and its timer form no cycle)
        self._generation = 0
        self.busy = TimeWeighted(env.now, 0.0, name=f"dpn{node_id}.busy")

    # -- public interface ----------------------------------------------------

    def submit(self, cohort: Cohort) -> Event:
        """Enqueue ``cohort`` for service; returns its completion event."""
        nodes = cohort.nodes
        if nodes != self.members and sorted(nodes) != list(self.members):
            raise ValueError(
                f"cohort for nodes {nodes} submitted to {self.members}"
            )
        turns, cohort._last = _service_turns(
            cohort.objects, cohort.quantum_objects, cohort.scanned
        )
        if not turns:
            # zero-cost cohorts complete immediately (cost-0 steps exist in
            # workloads where a declared demand rounds to zero)
            cohort.done.count_down()
            return cohort.done
        cohort._turns = turns
        now = self.env._now
        if now >= self._next:
            self._book(now)
        ring = self._ring
        # a newcomer joins at the tail: unless the armed cohort finishes
        # within this round, the newcomer's turn comes before its last
        moved = self._before_final >= len(ring)
        ring.append(cohort)
        trace = self._trace
        if trace.enabled:
            depth = len(ring)
            for node in nodes:
                trace.emit(now, "node.queue", node=node, depth=depth)
        if self._serving:
            if moved:
                self._order = nodes
                self._arm()
        elif self._idle:
            # start from a same-instant event, not inline: whatever else
            # happens at this instant (more submissions, a LOW-LB backlog
            # read) sees the ring before the first quantum takes a cohort
            self._idle = False
            self._order = nodes
            self.env.call_at(now, self._start, None)
        return cohort.done

    def book(self, horizon: float) -> None:
        """Book every quantum that ends at or before ``horizon``, except
        a cohort's final one (its completion event books that)."""
        if horizon >= self._next:
            self._book(horizon)

    @property
    def active_cohorts(self) -> int:
        """Cohorts waiting for a quantum (not the one in service)."""
        return len(self._ring) - self._serving

    @property
    def backlog_objects(self) -> float:
        """Total unscanned objects queued at this node right now (the
        cohort in service excluded)."""
        self.book(self.env.now)
        waiting = itertools.islice(self._ring, int(self._serving), None)
        return sum(c.remaining for c in waiting)

    def utilisation(self, now: typing.Optional[float] = None) -> float:
        """Fraction of time the node was scanning since the last reset."""
        value = self.busy.time_average(self.env.now if now is None else now)
        return 0.0 if math.isnan(value) else value

    def reset_statistics(self) -> None:
        """Restart utilisation averaging (warm-up cutoff)."""
        self.busy.reset(self.env.now)

    # -- service ----------------------------------------------------------------

    def _start(self, _arg: None) -> None:
        """An idle node starts serving after a submission."""
        now = self.env._now
        self.busy.update(now, 1.0)
        trace = self._trace
        if trace.enabled:
            for node in self._order:
                trace.emit(now, "node.busy", node=node)
        self._serving = True
        self._t = now
        self._arm()

    def _arm(self) -> None:
        """Find the next cohort to finish and set the timer for it.

        Round-robin from the head: the first cohort on its last turn
        finishes first; with none, the least ``(turns - 1) * m +
        position`` does.  The whole quanta before its final one are
        replayed from ``_t``; the final one lasts what the cohort's last
        turn scans.
        """
        ring = self._ring
        obj_time = self.obj_time_ms
        t = start = self._t
        before = 0
        for finisher in ring:
            if finisher._turns == 1:
                break
            t = t + finisher.quantum_objects * obj_time
            before += 1
        else:
            # every cohort has turns to go after this round
            m = before
            before = _INF
            for position, cohort in enumerate(ring):
                key = (cohort._turns - 1) * m + position
                if key < before:
                    before = key
            finisher = ring[before % m]
            for index in range(m, before):
                t = t + ring[index % m].quantum_objects * obj_time
        self._before_final = before
        self._next = (
            start + ring[0].quantum_objects * obj_time if before else _INF
        )
        self._generation += 1
        self.env.call_at(
            t + finisher._last * obj_time, self._complete, self._generation
        )

    def _book(self, horizon: float) -> None:
        """Book the whole quanta ending by ``horizon`` (at least one is
        due): credit each to its cohort and rotate it to the tail."""
        ring = self._ring
        obj_time = self.obj_time_ms
        left = self._before_final
        t = self._next
        while True:
            cohort = ring.popleft()
            cohort.scanned += cohort.quantum_objects
            cohort._turns -= 1
            ring.append(cohort)
            left -= 1
            if not left:
                end = _INF  # the armed final quantum is in service
                break
            end = t + ring[0].quantum_objects * obj_time
            if end > horizon:
                break
            t = end
        self._t = t
        self._next = end
        self._before_final = left

    def _complete(self, generation: int) -> None:
        """The armed final quantum ends: a cohort finishes."""
        if generation != self._generation:
            return  # re-armed since this timer was set
        now = self.env._now
        if self._before_final:
            self._book(now)
        ring = self._ring
        cohort = ring.popleft()
        cohort.scanned = cohort.objects
        cohort.done.count_down()
        depth = len(ring)
        trace = self._trace
        if depth:
            if trace.enabled:
                for node in self._order:
                    trace.emit(now, "node.queue", node=node, depth=depth)
            self._t = now
            self._arm()
            return
        self._serving = False
        self._idle = True
        self.busy.update(now, 0.0)
        if trace.enabled:
            for node in self._order:
                trace.emit(now, "node.queue", node=node, depth=0)
                trace.emit(now, "node.idle", node=node)
