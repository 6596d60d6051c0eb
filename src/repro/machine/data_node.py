"""Data-processing nodes (DPNs) with round-robin cohort service.

Per the paper's execution model: a step of a transaction on a file
declustered over DD nodes is split into DD cohorts; each DPN serves its
resident cohorts in a round-robin manner, the service quantum being the
scan of 1/DD object (so a quantum lasts ``obj_time / DD`` ms).  The only
DPN cost is I/O (``ObjTime`` per object); cohort-initiation control
overhead is ignored, as in the paper.

Service is driven by event callbacks, not a process: each quantum is
one :class:`~repro.des.Timeout` whose callback books the scan and starts
the next.  A step's cohorts share one :class:`Completion` (docs/MODEL.md
states the completion-order rule it keeps).
"""

from __future__ import annotations

import collections
import math
import typing

from repro.des import Environment, Event, Timeout
from repro.des.monitor import TimeWeighted
from repro.obs.profile import profiled_call

#: tolerance when deciding a cohort has scanned all its objects
_EPSILON = 1e-9


class Completion(Event):
    """Fires once ``cohorts`` cohorts have finished their scans.

    With ``relay`` (a step's cohorts) it fires one hop after the last
    one finishes -- where that cohort's own event and an ``AllOf`` over
    the step's cohorts would fire -- so same-instant ties resolve alike.
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
        relay = Event(self.env)
        relay.callbacks.append(lambda _relay: self.succeed())
        relay.succeed()


class Cohort:
    """One node's share of a step's scan.

    ``objects`` is the cohort's total I/O demand in objects (step cost /
    DD) and ``quantum_objects`` the round-robin service unit (1/DD object).
    """

    __slots__ = (
        "txn_id",
        "file_id",
        "node_id",
        "objects",
        "scanned",
        "quantum_objects",
        "done",
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
        self.objects = objects
        self.scanned = 0.0
        self.quantum_objects = quantum_objects
        #: fires when the cohort's whole scan is complete; a step's
        #: cohorts share the step's completion, which fires once all are
        self.done = Completion(env) if done is None else done

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


class DataProcessingNode:
    """A DPN serving cohorts round-robin in quanta of 1/DD object."""

    def __init__(self, env: Environment, node_id: int, obj_time_ms: float) -> None:
        if obj_time_ms <= 0:
            raise ValueError(f"obj_time_ms must be > 0, got {obj_time_ms}")
        self.env = env
        self.node_id = node_id
        self.obj_time_ms = obj_time_ms
        self._trace = env.trace
        #: cohorts waiting for a quantum (not the one in service)
        self._ring: typing.Deque[Cohort] = collections.deque()
        #: the cohort in its quantum, and that quantum's size in objects
        self._serving: typing.Optional[Cohort] = None
        self._quantum = 0.0
        #: no quantum in flight and no start pending
        self._idle = True
        self.busy = TimeWeighted(env.now, 0.0, name=f"dpn{node_id}.busy")
        self.queue = TimeWeighted(env.now, 0.0, name=f"dpn{node_id}.queue")
        if env.profile.enabled:
            # the instance attributes shadow the methods, so every
            # service callback is attributed to the phase
            self._start = profiled_call(
                self._start, env.profile, "machine.scan"
            )
            self._end_quantum = profiled_call(
                self._end_quantum, env.profile, "machine.scan"
            )

    # -- public interface ----------------------------------------------------

    def submit(self, cohort: Cohort) -> Event:
        """Enqueue ``cohort`` for service; returns its completion event."""
        if cohort.node_id != self.node_id:
            raise ValueError(
                f"cohort for node {cohort.node_id} submitted to {self.node_id}"
            )
        if cohort.finished:
            # zero-cost cohorts complete immediately (cost-0 steps exist in
            # workloads where a declared demand rounds to zero)
            cohort.done.count_down()
            return cohort.done
        self._ring.append(cohort)
        self.queue.update(self.env.now, len(self._ring))
        if self._trace.enabled:
            self._trace.emit(
                self.env.now, "node.queue",
                node=self.node_id, depth=len(self._ring),
            )
        if self._idle:
            # start from a same-instant event, not inline: whatever else
            # happens at this instant (more submissions, a LOW-LB backlog
            # read) sees the ring before the first quantum takes a cohort
            self._idle = False
            start = Event(self.env)
            start.callbacks.append(self._start)
            start.succeed()
        return cohort.done

    @property
    def active_cohorts(self) -> int:
        """Cohorts currently in the service rotation."""
        return len(self._ring)

    @property
    def backlog_objects(self) -> float:
        """Total unscanned objects queued at this node right now."""
        return sum(c.remaining for c in self._ring)

    def utilisation(self, now: typing.Optional[float] = None) -> float:
        """Fraction of time the node was scanning since the last reset."""
        value = self.busy.time_average(self.env.now if now is None else now)
        return 0.0 if math.isnan(value) else value

    def reset_statistics(self) -> None:
        """Restart utilisation/queue averaging (warm-up cutoff)."""
        self.busy.reset(self.env.now)
        self.queue.reset(self.env.now)

    # -- service ----------------------------------------------------------------

    def _start(self, _event: Event) -> None:
        """An idle node's first quantum after a submission."""
        self.busy.update(self.env.now, 1.0)
        if self._trace.enabled:
            self._trace.emit(self.env.now, "node.busy", node=self.node_id)
        self._next_quantum()

    def _next_quantum(self) -> None:
        cohort = self._ring.popleft()
        remaining = cohort.objects - cohort.scanned
        quantum = cohort.quantum_objects
        if remaining < quantum:
            quantum = remaining if remaining > 0.0 else 0.0
        self._serving = cohort
        self._quantum = quantum
        Timeout(self.env, quantum * self.obj_time_ms).callbacks.append(
            self._end_quantum
        )

    def _end_quantum(self, _timeout: Event) -> None:
        # One call per 1/DD-object service slice -- the hottest callback
        # of a run -- so monitor updates that would not change the
        # piecewise-constant signals are skipped (busy stays 1.0 across
        # back-to-back quanta; the ring length is unchanged when a
        # cohort rotates).
        now = self.env.now
        ring = self._ring
        cohort = self._serving
        cohort.scanned += self._quantum
        if cohort.objects - cohort.scanned <= _EPSILON:
            cohort.scanned = cohort.objects
            cohort.done.count_down()
        else:
            ring.append(cohort)
        depth = len(ring)
        queue = self.queue
        if queue._value != depth:
            queue.update(now, depth)
        trace = self._trace
        if trace.enabled:
            trace.emit(now, "node.queue", node=self.node_id, depth=depth)
        if depth:
            self._next_quantum()
            return
        self._serving = None
        self._idle = True
        self.busy.update(now, 0.0)
        if trace.enabled:
            trace.emit(now, "node.idle", node=self.node_id)
