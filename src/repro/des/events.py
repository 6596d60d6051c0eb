"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot future scheduled on an
:class:`~repro.des.engine.Environment`.  Processes yield events; the
environment resumes the process when the event fires.  Events succeed with
an optional value or fail with an exception.

An event triggered for a later instant (a :class:`Timeout`, or
``succeed(at=...)``) waits on the heap as an entry of its own.  One
triggered for now is a :func:`fire` call in the instant's
:meth:`~repro.des.engine.Environment.call_at` batch: it takes the same
sequence number and fires in the same FIFO place, without a heap push
and pop of its own.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.des.engine import Environment


class StopSimulation(Exception):
    """Raised by :meth:`~repro.des.engine.Environment.run` internals to
    end the run early: :func:`fire` raises it when the event a run waits
    for fires inside a call batch."""


class Event:
    """A one-shot occurrence that processes can wait on.

    Lifecycle: *pending* -> *triggered* (scheduled to fire) -> *processed*
    (callbacks ran).  An event may only be triggered once.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    #: sentinel distinguishing "no value yet" from a ``None`` value
    _PENDING = object()

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: typing.List[typing.Callable[["Event"], None]] = []
        self._value: object = Event._PENDING
        self._ok = True
        self._triggered = False
        self._processed = False

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> object:
        """The event's value; raises if the event has not yet fired."""
        if self._value is Event._PENDING:
            raise RuntimeError(f"{self!r} has not yet been triggered")
        return self._value

    # -- triggering -------------------------------------------------------

    def succeed(
        self, value: object = None, at: typing.Optional[float] = None
    ) -> "Event":
        """Schedule the event to fire successfully with ``value``: now,
        or at exactly the absolute time ``at``."""
        if at is None:
            trigger(self, value)
            return self
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self.env.schedule_at(self, at)
        self._ok = True
        self._value = value
        self._triggered = True
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule the event to fire by raising ``exception`` in waiters."""
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._triggered = True
        env = self.env
        env.call_at(env._now, fire, self)
        return self

    def __repr__(self) -> str:
        state = (
            "processed"
            if self._processed
            else "triggered"
            if self._triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


def trigger(event: Event, value: object = None) -> None:
    """Trigger ``event`` to succeed now with ``value``: ``succeed()``
    as a plain function, for the hot paths that wake many events (and
    for ``call_at``, which passes one argument).  Its :func:`fire` is
    the instant's next call."""
    if event._triggered:
        raise RuntimeError(f"{event!r} has already been triggered")
    event._ok = True
    event._value = value
    event._triggered = True
    env = event.env
    env.call_at(env._now, fire, event)


def fire(event: Event) -> None:
    """Run a triggered event's callbacks: its turn in its instant's call
    batch.  It ends a ``run(until=event)`` right after them."""
    callbacks, event.callbacks = event.callbacks, []
    event._processed = True
    for callback in callbacks:
        callback(event)
    if event is event.env._stop_event:
        raise StopSimulation


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: object = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        # slots are assigned directly (not via Event.__init__): timeouts
        # are the single most-constructed object in a run
        self.env = env
        self.callbacks = []
        self._processed = False
        self._ok = True
        self._value = value
        self._triggered = True
        env.schedule_at(self, env._now + delay)


class ConditionValue:
    """Mapping-like container with the values of fired sub-events."""

    __slots__ = ("events",)

    def __init__(self, events: typing.List[Event]) -> None:
        self.events = events

    def __getitem__(self, event: Event) -> object:
        if event not in self.events:
            raise KeyError(event)
        return event.value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __len__(self) -> int:
        return len(self.events)

    def values(self) -> typing.List[object]:
        return [event.value for event in self.events]


class Condition(Event):
    """Composite event that fires when ``evaluate`` says enough fired.

    Used through the :class:`AllOf` / :class:`AnyOf` conveniences.  A
    failure of any sub-event fails the condition immediately.
    """

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
        for event in self._events:
            if event.env is not env:
                raise ValueError("all events must share one environment")

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
            # decided: a sub-event still pending (the losing side of an
            # AnyOf) keeps this condition in its callbacks, so holding
            # it back would make a cycle only the cyclic collector frees
            self._events = []
            self.succeed(ConditionValue(fired))


class AllOf(Condition):
    """Fires when every sub-event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: typing.Iterable[Event]) -> None:
        super().__init__(env, lambda evs, count: count >= len(evs), events)


class AnyOf(Condition):
    """Fires when at least one sub-event has fired."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: typing.Iterable[Event]) -> None:
        super().__init__(env, lambda evs, count: count >= 1, events)
