"""The discrete-event kernel with one heap entry per trigger.

A test oracle for ``repro.des``: here every ``succeed()``/``fail()`` at
now, every process start and relay and every ``call_at`` call is an
event of its own, pushed on the heap and popped from it.  The package's
kernel runs the zero-delay triggers and the calls due at one instant as
one batch, and promises exactly the firing order this kernel gives, so
a program run under either must fire the same callbacks at the same
times in the same order.  Sampling, progress hooks and tracing are left
out: they only observe.
"""

from __future__ import annotations

import heapq
import typing

_PENDING = object()
_INF = float("inf")


class Event:
    """A one-shot occurrence, fired from a heap entry of its own."""

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: typing.List[typing.Callable[["Event"], None]] = []
        self._value: object = _PENDING
        self._ok = True
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> object:
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._value

    def succeed(
        self, value: object = None, at: typing.Optional[float] = None
    ) -> "Event":
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        env = self.env
        env.schedule_at(self, env._now if at is None else at)
        self._ok = True
        self._value = value
        self._triggered = True
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self._triggered = True
        self.env.schedule_at(self, self.env._now)
        return self


class Timeout(Event):
    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: object = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        super().__init__(env)
        self._value = value
        self._triggered = True
        env.schedule_at(self, env._now + delay)


class ConditionValue:
    __slots__ = ("events",)

    def __init__(self, events: typing.List[Event]) -> None:
        self.events = events

    def values(self) -> typing.List[object]:
        return [event.value for event in self.events]


class Condition(Event):
    """Fires when ``evaluate`` says enough sub-events fired; fails with
    the first sub-event that fails."""

    __slots__ = ("_events", "_evaluate", "_fired_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: typing.Callable[[typing.List[Event], int], bool],
        events: typing.Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._fired_count = 0
        if not self._events:
            self.succeed(ConditionValue([]))
            return
        for event in self._events:
            if event.processed:
                self._on_sub_event(event)
            else:
                event.callbacks.append(self._on_sub_event)

    def _on_sub_event(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self._events = []
            self.fail(typing.cast(BaseException, event.value))
            return
        self._fired_count += 1
        if self._evaluate(self._events, self._fired_count):
            fired = [e for e in self._events if e.triggered and e.ok]
            self._events = []
            self.succeed(ConditionValue(fired))


class Process(Event):
    """A generator resumed by the events it yields."""

    __slots__ = ("generator", "name")

    def __init__(
        self, env: "Environment", generator: typing.Generator, name: str = ""
    ) -> None:
        super().__init__(env)
        self.generator = generator
        self.name = name
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    def _resume(self, event: Event) -> None:
        env = self.env
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                target = self.generator.throw(
                    typing.cast(BaseException, event._value)
                )
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if env.strict:
                raise
            self.fail(exc)
            return
        if target._processed:
            relay = Event(env)
            relay.callbacks.append(self._resume)
            relay._ok = target._ok
            relay._value = target._value
            relay._triggered = True
            env.schedule_at(relay, env._now)
        else:
            target.callbacks.append(self._resume)


class Environment:
    """Clock and heap: every trigger and every call is one heap entry."""

    def __init__(self, initial_time: float = 0.0, strict: bool = True) -> None:
        self._now = float(initial_time)
        self._queue: typing.List[typing.Tuple[float, int, Event]] = []
        self._seq = 0
        self.strict = strict
        self.events_processed = 0

    @property
    def now(self) -> float:
        return self._now

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: typing.Generator, name: str = "") -> Process:
        return Process(self, generator, name)

    def all_of(self, events: typing.Iterable[Event]) -> Condition:
        return Condition(self, lambda evs, count: count >= len(evs), events)

    def any_of(self, events: typing.Iterable[Event]) -> Condition:
        return Condition(self, lambda evs, count: count >= 1, events)

    def schedule_at(self, event: Event, when: float) -> None:
        if not when >= self._now:
            raise ValueError(f"when={when} lies in the past (now={self._now})")
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, event))

    def call_at(
        self, when: float, fn: typing.Callable[[typing.Any], None], arg: object
    ) -> None:
        """``fn(arg)`` at ``when``, as an event of its own."""
        event = Event(self)
        event.callbacks.append(lambda _event: fn(arg))
        event.succeed(at=when)

    def step(self) -> None:
        """Fire the next event."""
        self._loop(_INF, self._queue[0][2])

    def run(self, until: typing.Union[None, float, Event] = None) -> object:
        if isinstance(until, Event):
            if not until.processed:
                self._loop(_INF, until)
                if not until.processed:
                    raise RuntimeError(
                        "run(until=event) exhausted the queue before the "
                        "event fired"
                    )
            if until.ok:
                return until.value
            raise typing.cast(BaseException, until.value)
        stop_at = _INF if until is None else float(until)
        self._loop(stop_at, None)
        if stop_at != _INF:
            self._now = stop_at
        return None

    def _loop(self, stop_at: float, stop_event: typing.Optional[Event]) -> None:
        queue = self._queue
        while queue:
            when, key, event = heapq.heappop(queue)
            if when >= stop_at:
                heapq.heappush(queue, (when, key, event))
                break
            self._now = when
            self.events_processed += 1
            callbacks, event.callbacks = event.callbacks, []
            event._processed = True
            for callback in callbacks:
                callback(event)
            if event is stop_event:
                break
