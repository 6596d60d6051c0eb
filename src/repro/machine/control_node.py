"""The control node (CN): a single CPU serving all coordination work.

Every cost the paper attributes to the control node -- transaction
startup, two-phase-commit coordination, message send/receive, and all
concurrency-control computation (deadlock tests, E(q), chain optimisation)
-- is a FIFO job on this one CPU.  The CN is therefore a potential
bottleneck exactly as in the paper's model.

The CPU is a callback-driven FIFO server.  :meth:`ControlNode.request`
queues one slice and returns it: the event fired at its end.  Whoever
asked for it -- a process that yields it, or a step whose next hop is
its callback -- waits on that event alone.  The CPU takes a slice and
pushes its end with no grant hop: in ``request`` when it is idle, else
in :meth:`ControlNode._finish` of the slice before, which books that
slice and hands the CPU on before anyone waiting on it runs.  Sequence
numbers, trace records and floats follow a CPU granting request events
but for one narrow tie (docs/MODEL.md, "How the CPU is driven").
"""

from __future__ import annotations

import collections
import heapq
import math
import typing

from repro.des import Environment, Event
from repro.des.monitor import Counter, TimeWeighted
from repro.machine.config import MachineConfig


_heappush = heapq.heappush
_new = object.__new__


class _Slice(Event):
    """One CN CPU slice: the event that fires when its service ends.

    :meth:`ControlNode.request` builds it with direct slot writes;
    ``cost_ms`` is the scaled service time.
    """

    __slots__ = ("cost_ms", "category")


class ControlNode:
    """4 MIPS coordinator CPU with cost accounting."""

    def __init__(self, env: Environment, config: MachineConfig) -> None:
        self.env = env
        self.config = config
        #: ``config.scaled`` as one multiplication per slice
        self._scale = config.cpu_scale
        self._trace = env.trace
        #: the slice holding the CPU, from its grant to its end
        self._serving: typing.Optional[_Slice] = None
        #: slices waiting for the CPU, in arrival order
        self._waiting: typing.Deque[_Slice] = collections.deque()
        self.busy = TimeWeighted(env.now, 0.0, name="cn.busy")
        self.cpu_ms_by_category: typing.Dict[str, float] = {}
        self.messages = Counter("cn.messages")

    @property
    def queue_length(self) -> int:
        """Number of slices waiting for the CPU."""
        return len(self._waiting)

    def request(
        self, cost_ms: float, category: str = "other"
    ) -> typing.Optional[Event]:
        """Queue one slice of ``cost_ms`` (scaled) on the CPU and return
        the event that fires at its end; a zero cost queues nothing and
        returns ``None``.

        Nothing needs to wait on the slice: its callbacks run after the
        CPU has booked it and granted the next waiter.
        """
        if not cost_ms > 0:  # zero, -0.0, negative or NaN
            if cost_ms == 0:
                return None
            raise ValueError(f"CPU cost must be >= 0, got {cost_ms}")
        env = self.env
        piece = _new(_Slice)
        piece.env = env
        piece.callbacks = [self._finish]
        piece._value = None
        piece._ok = True
        piece._triggered = False
        piece._processed = False
        piece.cost_ms = cost_ms * self._scale
        piece.category = category
        if self._serving is None:
            self.busy.update(env._now, 1.0)
            self._serve(piece)
        else:
            self._waiting.append(piece)
            if self._trace.enabled:
                self._trace_queue()
        return piece

    def consume(
        self, cost_ms: float, category: str = "other"
    ) -> typing.Generator:
        """Process generator: hold the CN CPU for ``cost_ms`` (scaled).

        Yield from this inside a transaction/scheduler process::

            yield from cn.consume(config.ddtime_ms, "cc-2pl")

        A zero-cost slice yields nothing: yielding an event that has
        already fired would cost the process a relay hop.
        """
        # the class's request, not a profiler's wrapper of it: a
        # profiled consume is already this slice's one machine span
        piece = type(self).request(self, cost_ms, category)
        if piece is not None:
            yield piece

    def _serve(self, piece: _Slice) -> None:
        """Give ``piece`` the CPU from now on: push its end entry."""
        self._serving = piece
        env = self.env
        now = env._now
        if self._trace.enabled:
            # the record goes where a grant event's resume would run
            env.call_at(now, self._trace_start, piece)
        piece._triggered = True
        # the end's heap entry, pushed as ``schedule_at`` would
        env._seq += 1
        _heappush(env._queue, (now + piece.cost_ms, env._seq, piece))

    def _trace_start(self, piece: _Slice) -> None:
        self._trace.emit(
            self.env._now, "cn.exec_start",
            category=piece.category, cost_ms=piece.cost_ms,
        )

    def _finish(self, piece: _Slice) -> None:
        """The end of ``piece``'s service, before its process resumes:
        book it and hand the CPU to the oldest waiter, if any."""
        env = self.env
        now = env._now
        category = piece.category
        categories = self.cpu_ms_by_category
        categories[category] = categories.get(category, 0.0) + piece.cost_ms
        trace = self._trace
        if trace.enabled:
            trace.emit(now, "cn.exec_end", category=category)
        waiting = self._waiting
        if not waiting:
            self.busy.update(now, 0.0)
            self._serving = None
            return
        self._serve(waiting.popleft())
        if trace.enabled:
            self._trace_queue()

    def _trace_queue(self) -> None:
        self._trace.emit(
            self.env._now, "res.queue", name="cn.cpu", depth=len(self._waiting)
        )

    def utilisation(self, now: typing.Optional[float] = None) -> float:
        """Fraction of time the CN CPU was busy since the last reset."""
        value = self.busy.time_average(self.env.now if now is None else now)
        return 0.0 if math.isnan(value) else value

    def timeseries_probes(
        self,
    ) -> typing.Dict[str, typing.Dict[str, typing.Any]]:
        """Per-window CN utilisation and instantaneous CPU queue depth."""
        from repro.obs.timeseries import (
            gauge,
            size_hist,
            utilisation_hist,
            windowed_rate,
        )

        return {
            "cn.util": {
                "probe": windowed_rate(self.busy.integral),
                "unit": "frac",
                "hist": utilisation_hist(),
            },
            "cn.queue": {
                "probe": gauge(lambda: self.queue_length),
                "unit": "jobs",
                "hist": size_hist(),
            },
        }

    def close(self) -> None:
        """Drop every pending slice (the run has ended): their callbacks
        refer back to this node and to the steps waiting on them."""
        self._serving = None
        self._waiting.clear()

    def reset_statistics(self) -> None:
        """Restart utilisation averaging and cost accounting (warm-up)."""
        self.busy.reset(self.env.now)
        self.cpu_ms_by_category.clear()
        self.messages.reset()
