"""The control node's CPU as a ``Resource`` granting ``Request`` events.

A test oracle for ``repro.machine.control_node``: :class:`Resource` is a
FIFO multi-server pool whose grants are events, and
:class:`ReferenceControlNode` serves every CN slice through it -- a
``Request`` event whose grant starts the slice's ``Timeout``, whose end
books the slice, releases the server and fires the slice's event.  The
``ControlNode`` serving slices without grant events promises exactly the
same sequence numbers, trace records (including the ``res.queue``
records of the ``cn.cpu`` line) and floats, so a run under either must
agree with ``==``.
"""

from __future__ import annotations

import collections
import math
import typing

from repro.des import Environment, Event, Timeout
from repro.machine import ControlNode, MachineConfig


class Request(Event):
    """Pending claim on a :class:`Resource`; fires when granted.

    Usable as a context manager so that ``with resource.request() as req:``
    releases the claim on exit even if the process body raises.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource

    def cancel(self) -> None:
        """Withdraw an ungranted claim (no-op if already granted)."""
        self.resource._cancel(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.resource.release(self)


class Resource:
    """A pool of ``capacity`` identical servers granted in FIFO order.

    A *named* resource reports its waiting-line depth to the
    environment's trace recorder (``res.queue`` events) whenever the
    queue length changes; anonymous resources never trace.
    """

    def __init__(
        self,
        env: Environment,
        capacity: int = 1,
        name: typing.Optional[str] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._trace = env.trace
        self._waiting: typing.Deque[Request] = collections.deque()
        self._granted: typing.Set[Request] = set()

    def _trace_queue(self) -> None:
        self._trace.emit(
            self.env.now, "res.queue", name=self.name, depth=len(self._waiting)
        )

    @property
    def in_use(self) -> int:
        """Number of servers currently held."""
        return len(self._granted)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a server."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim a server; the returned event fires when granted."""
        req = Request(self)
        if len(self._granted) < self.capacity:
            self._granted.add(req)
            req.succeed()
        else:
            self._waiting.append(req)
            if self._trace.enabled and self.name is not None:
                self._trace_queue()
        return req

    def release(self, request: Request) -> None:
        """Return a server to the pool and grant the next waiter."""
        if request in self._granted:
            self._granted.remove(request)
            self._grant_next()
        else:
            # Releasing an ungranted request withdraws it from the queue.
            self._cancel(request)

    def _cancel(self, request: Request) -> None:
        try:
            self._waiting.remove(request)
        except ValueError:
            pass

    def _grant_next(self) -> None:
        drained = False
        while self._waiting and len(self._granted) < self.capacity:
            nxt = self._waiting.popleft()
            drained = True
            if nxt.triggered:  # withdrawn/poisoned requests are skipped
                continue
            self._granted.add(nxt)
            nxt.succeed()
        if drained and self._trace.enabled and self.name is not None:
            self._trace_queue()


class ReferenceControlNode(ControlNode):
    """``ControlNode`` with each slice a ``Request`` on a ``Resource``."""

    def __init__(self, env: Environment, config: MachineConfig) -> None:
        super().__init__(env, config)
        self.cpu = Resource(env, capacity=1, name="cn.cpu")

    def request(
        self, cost_ms: float, category: str = "other"
    ) -> typing.Optional[Event]:
        if cost_ms < 0 or math.isnan(cost_ms):
            raise ValueError(f"CPU cost must be >= 0, got {cost_ms}")
        if cost_ms == 0:
            return None
        scaled = self.config.scaled(cost_ms)
        env = self.env
        busy = self.busy
        trace = self._trace
        cpu = self.cpu
        piece = Event(env)
        req = cpu.request()

        def grant(_req: Event) -> None:
            if busy.value != 1.0:
                busy.update(env.now, 1.0)
            if trace.enabled:
                trace.emit(
                    env.now, "cn.exec_start",
                    category=category, cost_ms=scaled,
                )
            Timeout(env, scaled).callbacks.append(end)

        def end(_timeout: Event) -> None:
            categories = self.cpu_ms_by_category
            categories[category] = categories.get(category, 0.0) + scaled
            if trace.enabled:
                trace.emit(env.now, "cn.exec_end", category=category)
            if not cpu._waiting:
                busy.update(env.now, 0.0)
            cpu.release(req)
            # the slice's event fires inline, after the next grant, as
            # a process resumed at the end would have run on
            callbacks, piece.callbacks = piece.callbacks, []
            piece._value = None
            piece._triggered = piece._processed = True
            for callback in callbacks:
                callback(piece)

        req.callbacks.append(grant)
        return piece

    @property
    def queue_length(self) -> int:
        return self.cpu.queue_length
