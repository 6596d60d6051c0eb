"""The event loop: a time-ordered heap of entries, each an event or the
batch of calls due at one instant.

Determinism: everything scheduled for the same simulated time fires in
FIFO order of scheduling (a monotonically increasing sequence number
breaks ties), so a simulation with a fixed RNG seed replays identically.
Only events scheduled for a later instant (a :class:`Timeout`, a
``succeed(at=...)``, :meth:`Environment.schedule_at`) get heap entries
of their own.  Every zero-delay trigger -- an event's ``succeed()`` or
``fail()``, a process's start and its resume on an event already
processed -- is a call registered with :meth:`Environment.call_at`, and
all calls due at one instant share one heap entry while each takes its
place in the FIFO order as if it were an event of its own.
"""

from __future__ import annotations

import heapq
import typing

_heappush = heapq.heappush
_heappop = heapq.heappop

from repro.des.events import AllOf, AnyOf, Event, StopSimulation, Timeout
from repro.des.process import Process, ProcessGenerator
from repro.obs.recorder import NULL_RECORDER, TraceRecorder

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.timeseries import TimeSeriesSampler


class _CallBatch(list):
    """The :meth:`Environment.call_at` calls due at one instant, as
    ``(key, fn, arg)`` in key order.

    It sits on the heap like an event (the run loop fires it through its
    ``callbacks``) under the key of its first pending call.
    """

    __slots__ = ("env", "callbacks", "_processed")


def _run_batch(batch: _CallBatch) -> None:
    """Run a batch's calls in key order.

    Before each call after the first the heap head is checked: an event
    at the same instant with a smaller key was scheduled between two of
    the calls, so it must fire first.  The rest of the batch then goes
    back on the heap under its first call's key.  A call that raises
    leaves the rest pending the same way.
    """
    env = batch.env
    queue = env._queue
    when = env._now
    done = 0
    try:
        # a call appended while the loop runs is reached by it too
        for key, fn, arg in batch:
            if done and queue:
                head = queue[0]
                if head[0] == when and head[1] < key:
                    break
            done += 1
            fn(arg)
    finally:
        if done < len(batch):
            del batch[:done]
            batch.callbacks = _RUN_BATCH
            _heappush(queue, (when, batch[0][0], batch))
        else:
            del env._batches[when]


_RUN_BATCH = (_run_batch,)


class Environment:
    """Simulation environment: clock, event heap and process factory."""

    def __init__(self, initial_time: float = 0.0, strict: bool = True) -> None:
        self._now = float(initial_time)
        #: (time, seq, event): the unique seq breaks same-time ties in
        #: FIFO order and means Event objects are never compared
        self._queue: typing.List[
            typing.Tuple[float, int, typing.Union[Event, _CallBatch]]
        ] = []
        self._seq = 0
        #: the pending :meth:`call_at` batch of each instant
        self._batches: typing.Dict[float, _CallBatch] = {}
        self._active_process: typing.Optional[Process] = None
        #: the entry the running loop stops after (the event of
        #: ``run(until=event)``): an event firing inside a call batch
        #: checks it, to end the run right after its callbacks
        self._stop_event: object = None
        #: processes whose generator has not finished, in start order
        #: (kept so :meth:`close` can reach the ones still parked)
        self._processes: typing.Dict[Process, None] = {}
        #: when True, exceptions escaping a process propagate out of run()
        self.strict = strict
        #: the trace sink every model component checks before emitting;
        #: stays the shared no-op recorder unless a run installs a real
        #: one *before* building components (they cache the reference)
        self.trace: TraceRecorder = NULL_RECORDER
        #: optional time-series sampler; the run loop compares each
        #: event's time with its next boundary
        self.sampler: typing.Optional["TimeSeriesSampler"] = None
        #: events fired so far (simulator throughput accounting)
        self.events_processed = 0
        #: optional live-progress hook ``hook(now_ms, events_processed)``
        #: invoked every ``progress_every`` events -- the telemetry
        #: heartbeat rides this; observation only, and the run loop
        #: compares its event count with one threshold either way
        self.progress_hook: typing.Optional[
            typing.Callable[[float, int], None]
        ] = None
        self.progress_every: int = 4096
        self._progress_next = 0

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> typing.Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- event factories ----------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: ProcessGenerator, name: typing.Optional[str] = None
    ) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: typing.Iterable[Event]) -> AllOf:
        """Event firing once every event in ``events`` fired."""
        return AllOf(self, events)

    def any_of(self, events: typing.Iterable[Event]) -> AnyOf:
        """Event firing once any event in ``events`` fired."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------

    def schedule_at(self, event: Event, when: float) -> None:
        """Enqueue a triggered event to fire at exactly the time ``when``,
        in a heap entry of its own.

        A delay added to ``now`` need not round back to an instant a
        caller has computed itself, so such a caller passes the instant
        here (or to :meth:`call_at`) to keep it bit for bit.  Same-time
        events still fire in FIFO order of scheduling.  ``Timeout`` and
        ``succeed(at=...)`` enqueue their events here.
        """
        if not when >= self._now:
            raise ValueError(f"when={when} lies in the past (now={self._now})")
        self._seq += 1
        _heappush(self._queue, (when, self._seq, event))

    def call_at(
        self, when: float, fn: typing.Callable[[typing.Any], None], arg: object
    ) -> None:
        """Call ``fn(arg)`` at exactly the time ``when``.

        The call takes a sequence number as :meth:`schedule_at` would,
        and fires in exactly the order an event scheduled in its place
        would: FIFO among everything due at ``when``.  All calls due at
        one instant share one heap entry, so a group of callbacks that
        fall due together costs one push, one pop and one dispatch.  A
        call registered for ``now`` while that instant's batch runs joins
        it.  Every zero-delay trigger of the kernel (``succeed()``,
        ``fail()``, a process's start and relay) is such a call.
        """
        self._seq += 1
        key = self._seq
        batches = self._batches
        if when in batches:
            batches[when].append((key, fn, arg))
            return
        if not when >= self._now:
            raise ValueError(f"when={when} lies in the past (now={self._now})")
        batch = batches[when] = _CallBatch()
        batch.append((key, fn, arg))
        batch.env = self
        batch.callbacks = _RUN_BATCH
        _heappush(self._queue, (when, key, batch))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when idle."""
        return self._queue[0][0] if self._queue else _INF

    def step(self) -> None:
        """Fire the single next heap entry (advancing the clock to it).

        When that entry is an instant's call batch, the calls that join
        the batch while it runs (the zero-delay triggers it causes) fire
        in this step too, unless an entry on the heap must come between.
        """
        queue = self._queue
        if not queue:
            raise StopSimulation("event queue is empty")
        self._loop(_INF, queue[0][2])

    def close(self) -> None:
        """Tear down a finished run.

        Each process still parked holds a reference cycle (its generator
        frame refers to the event it waits on, whose callback refers
        back to the process), so without this the run's whole object
        graph waits for a full cyclic collection.  Closing every parked
        generator and dropping the pending events and call batches (whose
        bound methods refer back to the model) lets reference counting
        free it at once.  The environment cannot run on.
        """
        processes, self._processes = self._processes, {}
        for process in processes:
            process.generator.close()
        self._queue.clear()
        self._batches.clear()

    # -- run loop ------------------------------------------------------------

    def run(self, until: typing.Optional[typing.Union[float, Event]] = None) -> object:
        """Run the simulation.

        ``until`` may be:

        - ``None``: run until the event queue drains;
        - a number: run until the clock reaches that time (the clock is set
          to exactly that time on return).  The end is *exclusive*, as in
          simpy: events scheduled at exactly ``until`` do not fire, so a
          measurement window ``[0, until)`` never counts boundary events
          twice across adjacent windows;
        - an :class:`Event`: run until that event fires, returning its
          value (or raising its exception).  The run stops right after
          the event's callbacks, leaving the rest of its instant pending.
        """
        if until is None:
            stop_at = _INF
            stop_event: typing.Optional[Event] = None
        elif isinstance(until, Event):
            stop_at = _INF
            stop_event = until
            if stop_event.processed:
                if stop_event.ok:
                    return stop_event.value
                raise typing.cast(BaseException, stop_event.value)
        else:
            stop_at = float(until)
            stop_event = None
            if stop_at < self._now:
                raise ValueError(
                    f"until={stop_at} lies in the past (now={self._now})"
                )

        self._loop(stop_at, stop_event)

        if stop_event is not None:
            if not stop_event.processed:
                raise RuntimeError(
                    "run(until=event) exhausted the queue before the event fired"
                )
            if stop_event.ok:
                return stop_event.value
            raise typing.cast(BaseException, stop_event.value)

        if stop_at != _INF:
            sampler = self.sampler
            if sampler is not None and stop_at >= sampler.next_due:
                # boundaries between the last event and the horizon:
                # state is frozen, so sample-and-hold extends to the end
                sampler.advance_to(stop_at)
            self._now = stop_at
        return None

    def _loop(self, stop_at: float, stop_event: object) -> None:
        """Pop and fire heap entries until the queue drains, the next
        entry lies at or past ``stop_at``, or the entry ``stop_event``
        (an event, or the head entry for :meth:`step`) has fired.  An
        event that fires inside a call batch ends the loop by raising
        :class:`StopSimulation` when it is ``stop_event``.

        The sampler's next boundary and the progress threshold are read
        once per call; each changes only through the sampler or the hook
        this loop itself calls.  The event count is kept in a local and
        stored back before the hook runs and when the loop ends.
        """
        queue = self._queue
        pop = _heappop
        sampler = self.sampler
        due = _INF if sampler is None else sampler.next_due
        progress = self.progress_hook
        report_at = _INF if progress is None else self._progress_next
        count = self.events_processed
        outer_stop, self._stop_event = self._stop_event, stop_event
        try:
            while queue:
                when, key, event = pop(queue)
                if when >= stop_at:
                    # not fired: back on the heap for the next run
                    _heappush(queue, (when, key, event))
                    break
                if when >= due:
                    # sample every boundary the clock is about to cross,
                    # before the events at the new time fire
                    # (sample-and-hold)
                    sampler.advance_to(when)
                    due = sampler.next_due
                self._now = when
                count += 1
                if count >= report_at:
                    self.events_processed = count
                    report_at = self._progress_next = count + self.progress_every
                    progress(when, count)
                callbacks, event.callbacks = event.callbacks, []
                event._processed = True
                for callback in callbacks:
                    callback(event)
                if event is stop_event:
                    break
        except StopSimulation:
            pass
        finally:
            self._stop_event = outer_stop
            self.events_processed = count


_INF = float("inf")
