"""Wall-clock self-profiling of the simulator itself.

The simulator's trace answers "what did the *modelled* system do";
this module answers "where does the *simulator's own* wall time go",
attributing host CPU to a small set of phases:

``des.heap``
    Event-heap operations (push on :meth:`Environment.schedule`, pop in
    :meth:`Environment.step`).
``sched.decision``
    Scheduler policy evaluation (``_try_admit`` / ``_try_acquire``
    resume segments, chain solving, WTPG maintenance).
``lock.manager``
    Lock-table mutation (grants and commit/abort release sweeps).
``machine.cn``
    Control-node CPU-cost modelling: the startup/commit slices, and the
    CPU's grant and end callbacks for every slice.
``machine.msg``
    Message send/receive modelling.
``machine.scan``
    DPN round-robin cohort service: the callbacks that start a node's
    service and end each quantum (booking the scan, completing or
    rotating the cohort, starting the next quantum).

Attribution is *exclusive*: phases form a stack, and elapsed time always
lands on the innermost open phase, so nested instrumentation (a lock
grant inside a scheduler decision) never double-counts.  Whatever is not
covered by any phase is reported as ``other`` against the run's total.

Like the trace recorders, the disabled path is one class-attribute check
per instrumented site (``if profiler.enabled:``) -- no call, no clock
read -- and the profiler never interacts with the simulation state, so a
profiled run is byte-identical to an unprofiled one.
"""

from __future__ import annotations

import time
import typing

_perf_counter = time.perf_counter

#: canonical reporting order of the instrumented phases
PHASES: typing.Tuple[str, ...] = (
    "des.heap",
    "sched.decision",
    "lock.manager",
    "machine.cn",
    "machine.msg",
    "machine.scan",
)


class SimProfiler:
    """Phase-stack wall-clock profiler (disabled base; see subclass)."""

    #: instrumented sites skip push/pop entirely when this is False
    enabled: bool = False

    def push(self, phase: str) -> None:
        """Open ``phase``; time now accrues to it (no-op when disabled)."""

    def pop(self) -> None:
        """Close the innermost phase (no-op when disabled)."""

    def span(self, phase: str, start: float, end: float) -> None:
        """Attribute the ``[start, end]`` interval to ``phase``.

        Equivalent to a ``push(phase)`` at ``start`` followed by a
        ``pop()`` at ``end``, fused into one call for instrumentation
        sites that bracket a single short operation (the event-heap
        push/pop): the caller reads the clock twice and hands both
        stamps over, avoiding the per-call stack churn.  No-op when
        disabled.
        """


class NullProfiler(SimProfiler):
    """The always-off profiler; every Environment starts with one."""

    __slots__ = ()


#: shared default instance -- stateless, so one is enough for everyone
NULL_PROFILER = NullProfiler()


class PhaseProfiler(SimProfiler):
    """Accumulates exclusive wall time per phase via ``perf_counter``."""

    enabled = True

    def __init__(self) -> None:
        self.seconds: typing.Dict[str, float] = {}
        self.calls: typing.Dict[str, int] = {}
        #: (phase, entered-at) frames; the top frame owns elapsing time
        self._stack: typing.List[typing.Tuple[str, float]] = []

    def push(self, phase: str) -> None:
        now = _perf_counter()
        stack = self._stack
        if stack:
            seconds = self.seconds
            parent, since = stack[-1]
            seconds[parent] = seconds.get(parent, 0.0) + (now - since)
        stack.append((phase, now))
        calls = self.calls
        calls[phase] = calls.get(phase, 0) + 1

    def pop(self) -> None:
        now = _perf_counter()
        stack = self._stack
        phase, since = stack.pop()
        seconds = self.seconds
        seconds[phase] = seconds.get(phase, 0.0) + (now - since)
        if stack:
            parent, _ = stack[-1]
            stack[-1] = (parent, now)

    def span(self, phase: str, start: float, end: float) -> None:
        seconds = self.seconds
        stack = self._stack
        if stack:
            # exclusive attribution: carve the interval out of the
            # enclosing phase exactly as a nested push/pop pair would
            parent, since = stack[-1]
            seconds[parent] = seconds.get(parent, 0.0) + (start - since)
            stack[-1] = (parent, end)
        seconds[phase] = seconds.get(phase, 0.0) + (end - start)
        calls = self.calls
        calls[phase] = calls.get(phase, 0) + 1

    def reset(self) -> None:
        """Drop everything accumulated so far."""
        self.seconds.clear()
        self.calls.clear()
        self._stack.clear()

    def report(
        self, total_s: typing.Optional[float] = None
    ) -> typing.Dict[str, typing.Any]:
        """Per-phase seconds/calls, plus ``other`` when ``total_s`` given.

        ``total_s`` is the whole run's wall time measured by the caller
        (the profiler cannot know it: it only sees instrumented spans).
        """
        phases = {
            phase: {
                "seconds": round(self.seconds.get(phase, 0.0), 6),
                "calls": self.calls.get(phase, 0),
            }
            for phase in sorted(set(PHASES) | set(self.seconds))
        }
        payload: typing.Dict[str, typing.Any] = {"phases": phases}
        if total_s is not None:
            covered = sum(self.seconds.values())
            payload["total_s"] = round(total_s, 6)
            payload["other_s"] = round(max(0.0, total_s - covered), 6)
        return payload

    def __repr__(self) -> str:
        spans = ", ".join(
            f"{phase}={self.seconds[phase]:.3g}s"
            for phase in sorted(self.seconds)
        )
        return f"<PhaseProfiler {spans or 'empty'}>"


def profiled(
    gen: typing.Generator,
    profiler: SimProfiler,
    phase: str,
) -> typing.Generator:
    """Drive ``gen``, attributing each *resume segment* to ``phase``.

    A simulation process spends most of its lifetime suspended on
    events; only the CPU bursts between yields are the simulator's own
    work.  This wrapper times exactly those bursts, relaying sends and
    throws transparently so the wrapped generator behaves identically
    (same yields, same return value, same exceptions).
    """
    send_value: typing.Any = None
    thrown: typing.Optional[BaseException] = None
    push = profiler.push
    pop = profiler.pop
    send = gen.send
    while True:
        push(phase)
        try:
            if thrown is not None:
                exc, thrown = thrown, None
                item = gen.throw(exc)
            else:
                item = send(send_value)
        except StopIteration as stop:
            return stop.value
        finally:
            pop()
        try:
            send_value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:
            thrown = exc


def profiled_call(
    fn: typing.Callable[..., typing.Any], profiler: SimProfiler, phase: str
) -> typing.Callable[..., typing.Any]:
    """``fn`` with each call attributed to ``phase``: :func:`profiled`
    for model code driven by event callbacks instead of a process."""

    def call(*args: typing.Any) -> typing.Any:
        profiler.push(phase)
        try:
            return fn(*args)
        finally:
            profiler.pop()

    return call
