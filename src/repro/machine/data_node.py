"""Data-processing nodes (DPNs) with round-robin cohort service.

Per the paper's execution model: a step of a transaction on a file
declustered over DD nodes is split into DD cohorts; each DPN serves its
resident cohorts in a round-robin manner, the service quantum being the
scan of 1/DD object (so a quantum lasts ``obj_time / DD`` ms).  The only
DPN cost is I/O (``ObjTime`` per object); cohort-initiation control
overhead is ignored, as in the paper.
"""

from __future__ import annotations

import collections
import math
import typing

from repro.des import Environment, Event, Timeout
from repro.des.monitor import TimeWeighted
from repro.obs.profile import profiled

#: tolerance when deciding a cohort has scanned all its objects
_EPSILON = 1e-9


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
        #: fires when the cohort's whole scan is complete
        self.done: Event = env.event()

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
        self._ring: typing.Deque[Cohort] = collections.deque()
        self._arrival: Event = env.event()
        self.busy = TimeWeighted(env.now, 0.0, name=f"dpn{node_id}.busy")
        self.queue = TimeWeighted(env.now, 0.0, name=f"dpn{node_id}.queue")
        serve = self._serve()
        if env.profile.enabled:
            serve = profiled(serve, env.profile, "machine.scan")
        self._process = env.process(serve, name=f"dpn-{node_id}")

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
            if not cohort.done.triggered:
                cohort.done.succeed()
            return cohort.done
        self._ring.append(cohort)
        self.queue.update(self.env.now, len(self._ring))
        if self._trace.enabled:
            self._trace.emit(
                self.env.now, "node.queue",
                node=self.node_id, depth=len(self._ring),
            )
        if not self._arrival.triggered:
            self._arrival.succeed()
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

    # -- service loop ----------------------------------------------------------

    def _serve(self) -> typing.Generator:
        # The quantum loop is the single hottest process in a run (one
        # resume per 1/DD-object service slice), so the body leans on
        # locals and skips monitor updates that would not change the
        # piecewise-constant signals (busy stays 1.0 across back-to-back
        # quanta; the ring length is unchanged when a cohort rotates).
        env = self.env
        ring = self._ring
        busy = self.busy
        queue = self.queue
        trace = self._trace
        obj_time_ms = self.obj_time_ms
        scanning = False  # trace busy/idle only on actual transitions
        while True:
            if not ring:
                self._arrival = env.event()
                busy.update(env.now, 0.0)
                if scanning:
                    scanning = False
                    if trace.enabled:
                        trace.emit(env.now, "node.idle", node=self.node_id)
                yield self._arrival
                continue
            if not scanning:
                scanning = True
                busy.update(env.now, 1.0)
                if trace.enabled:
                    trace.emit(env.now, "node.busy", node=self.node_id)
            cohort = ring.popleft()
            remaining = cohort.objects - cohort.scanned
            quantum = cohort.quantum_objects
            if remaining < quantum:
                quantum = remaining if remaining > 0.0 else 0.0
            yield Timeout(env, quantum * obj_time_ms)
            cohort.scanned += quantum
            if cohort.objects - cohort.scanned <= _EPSILON:
                cohort.scanned = cohort.objects
                done = cohort.done
                if not done._triggered:
                    # no value: cohort -> done -> cohort would be a
                    # reference cycle left for the cyclic collector
                    done.succeed()
            else:
                ring.append(cohort)
            depth = len(ring)
            if queue._value != depth:
                queue.update(env.now, depth)
            if trace.enabled:
                trace.emit(
                    env.now, "node.queue", node=self.node_id, depth=depth
                )
