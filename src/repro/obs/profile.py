"""Wall-clock profiling of the simulator, from outside the model.

The simulator's trace answers "what did the *modelled* system do"; this
module answers "where does the *simulator's own* wall time go".  The
model carries no hook for it: :meth:`PhaseProfiler.attach` wraps the
entry points of one run's own objects (:data:`ENTRY_POINTS`) as instance
attributes, so class attributes and module globals never change.  A
wrapper refers back to its object through the bound method it wraps, so
:meth:`PhaseProfiler.detach` drops the wrappers again when the run
closes, and reference counting alone frees the run.

A span stack gives every layer its *self* time: a span's duration minus
the time covered by the spans opened inside it, so the layers tile the
profiled time without double counting.  A plain function is one span
per call; a generator (a scheduler's ``acquire``,
``ControlNode.consume``) is one span per resume, never over the
simulated time it spends suspended, with sends, throws, return values
and ``close()`` relayed unchanged.  A CN slice is queued by one call of
either ``consume`` or ``request``, so it is one ``machine`` call.  ``des`` is the event loop itself: the heap, event
dispatch, and every callback and process body without an entry point
of its own.  A wrapper only reads the clock, so a
profiled run computes byte-identical results.
"""

from __future__ import annotations

import functools
import inspect
import time
import typing

_clock = time.perf_counter

#: (layer, path from the Simulation to the objects, method names) per
#: wrapped entry point; no names means every public method.  A path that
#: leads nowhere (a scheduler without a WTPG) is skipped, and a list (a
#: node group repeats one DPN per member) yields each object once.
ENTRY_POINTS = (
    ("des", "env", ("run",)),
    ("machine", "machine.control_node", ("consume", "request")),
    ("machine", "machine.data_nodes", ("submit",)),
    ("machine", "machine", ("begin_step",)),
    ("sched", "scheduler",
     ("admit", "acquire", "commit", "abort", "validate_at_commit")),
    ("locks", "scheduler.lock_table", ()),
    ("wtpg", "scheduler.wtpg", ()),
    ("sim", "metrics", ("record_commit", "record_restart")),
)

#: layer names, in reporting order (a subset of perfbench's layers)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in ENTRY_POINTS))


def _objects(simulation: typing.Any, path: str) -> typing.List[typing.Any]:
    found = simulation
    for name in path.split("."):
        found = getattr(found, name, None)
    if found is None:
        return []
    return list(dict.fromkeys(found)) if isinstance(found, list) else [found]


def _public_methods(obj: typing.Any) -> typing.List[str]:
    cls = type(obj)
    return [
        name for name in dir(cls)
        if not name.startswith("_") and inspect.isfunction(getattr(cls, name))
    ]


class PhaseProfiler:
    """Self wall time and call count per layer via ``perf_counter``."""

    def __init__(self) -> None:
        self.seconds: typing.Dict[str, float] = {}
        #: invocations per layer (a generator counts once, not per resume)
        self.calls: typing.Dict[str, int] = {}
        #: one ``[seconds covered by child spans]`` cell per open span
        self._stack: typing.List[typing.List[float]] = []

    def attach(self, simulation: typing.Any) -> None:
        """Wrap ``simulation``'s entry points (its machine and scheduler
        are built) as attributes of its own objects."""
        for layer, path, names in ENTRY_POINTS:
            for obj in _objects(simulation, path):
                for name in names or _public_methods(obj):
                    setattr(obj, name, self.wrap(layer, getattr(obj, name)))

    @staticmethod
    def detach(simulation: typing.Any) -> None:
        """Drop the wrappers :meth:`attach` set on ``simulation``."""
        for _layer, path, names in ENTRY_POINTS:
            for obj in _objects(simulation, path):
                for name in names or _public_methods(obj):
                    vars(obj).pop(name, None)

    def _close(
        self, layer: str, start: float, frame: typing.List[float]
    ) -> None:
        elapsed = _clock() - start
        stack = self._stack
        stack.pop()
        seconds = self.seconds
        seconds[layer] = seconds.get(layer, 0.0) + elapsed - frame[0]
        if stack:
            stack[-1][0] += elapsed

    def wrap(self, layer: str, fn: typing.Callable) -> typing.Callable:
        """``fn`` as one ``layer`` span per call, or per resume for a
        generator function."""
        stack = self._stack
        close = self._close
        calls = self.calls

        if not inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def call(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
                calls[layer] = calls.get(layer, 0) + 1
                frame = [0.0]
                stack.append(frame)
                start = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(layer, start, frame)

            return call

        def drive(gen: typing.Generator) -> typing.Generator:
            send_value: typing.Any = None
            thrown: typing.Optional[BaseException] = None
            while True:
                frame = [0.0]
                stack.append(frame)
                start = _clock()
                try:
                    if thrown is not None:
                        exc, thrown = thrown, None
                        item = gen.throw(exc)
                    else:
                        item = gen.send(send_value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    close(layer, start, frame)
                try:
                    send_value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # relayed into the generator
                    thrown = exc

        @functools.wraps(fn)
        def resume(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
            calls[layer] = calls.get(layer, 0) + 1
            return drive(fn(*args, **kwargs))

        return resume

    def reset(self) -> None:
        """Drop everything accumulated so far."""
        self.seconds.clear()
        self.calls.clear()
        self._stack.clear()

    def report(
        self, total_s: typing.Optional[float] = None
    ) -> typing.Dict[str, typing.Any]:
        """Per-layer seconds/calls, plus ``other_s`` when ``total_s`` given.

        ``total_s`` is the whole run's wall time measured by the caller;
        ``other_s`` is the part of it no wrapped entry point covered
        (building the run, collecting its result, the caller's own code).
        """
        phases = {
            layer: {
                "seconds": round(self.seconds.get(layer, 0.0), 6),
                "calls": self.calls.get(layer, 0),
            }
            for layer in [*LAYERS, *sorted(set(self.seconds) - set(LAYERS))]
        }
        payload: typing.Dict[str, typing.Any] = {"phases": phases}
        if total_s is not None:
            covered = sum(self.seconds.values())
            payload["total_s"] = round(total_s, 6)
            payload["other_s"] = round(max(0.0, total_s - covered), 6)
        return payload
