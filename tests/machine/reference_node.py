"""Test oracle: the DPN served one event per quantum.

This is the quantum-by-quantum round-robin service that
``repro.machine.data_node`` replaced with one completion timer per
node.  It is kept here only so the property tests can hold the
event-sparse node to it: every completion time, the ``busy`` integral
and every quantum-granular read must agree exactly.  Each quantum is
one :class:`~repro.des.Timeout`, whose callback books the scan,
completes the cohort or re-appends it to the ring, and starts the next
quantum.
"""

from __future__ import annotations

import collections
import math
import typing

from repro.des import Environment, Event, Timeout
from repro.des.monitor import TimeWeighted
from repro.machine.data_node import _EPSILON, Cohort


class PerQuantumNode:
    """A DPN serving cohorts round-robin, one event per quantum."""

    def __init__(self, env: Environment, node_id: int, obj_time_ms: float) -> None:
        self.env = env
        self.node_id = node_id
        self.obj_time_ms = obj_time_ms
        #: cohorts waiting for a quantum (not the one in service)
        self._ring: typing.Deque[Cohort] = collections.deque()
        #: the cohort in its quantum, and that quantum's size in objects
        self._serving: typing.Optional[Cohort] = None
        self._quantum = 0.0
        #: no quantum in flight and no start pending
        self._idle = True
        self.busy = TimeWeighted(env.now, 0.0, name=f"ref{node_id}.busy")

    def submit(self, cohort: Cohort) -> Event:
        if cohort.finished:
            cohort.done.count_down()
            return cohort.done
        self._ring.append(cohort)
        if self._idle:
            self._idle = False
            start = Event(self.env)
            start.callbacks.append(self._start)
            start.succeed()
        return cohort.done

    def book(self, horizon: float) -> None:
        """Nothing to do: every quantum is booked as its event fires."""

    @property
    def active_cohorts(self) -> int:
        return len(self._ring)

    @property
    def backlog_objects(self) -> float:
        return sum(c.remaining for c in self._ring)

    def _start(self, _event: Event) -> None:
        self.busy.update(self.env.now, 1.0)
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
        cohort = self._serving
        cohort.scanned += self._quantum
        if cohort.objects - cohort.scanned <= _EPSILON:
            cohort.scanned = cohort.objects
            cohort.done.count_down()
        else:
            self._ring.append(cohort)
        if self._ring:
            self._next_quantum()
            return
        self._serving = None
        self._idle = True
        self.busy.update(self.env.now, 0.0)

    def utilisation(self) -> float:
        value = self.busy.time_average(self.env.now)
        return 0.0 if math.isnan(value) else value
