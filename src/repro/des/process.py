"""Process abstraction: a generator driven by the event loop.

A process is created from a Python generator that yields
:class:`~repro.des.events.Event` objects.  Each yield suspends the process
until the yielded event fires; the event's value is sent back into the
generator (or its exception thrown in).  A process is itself an event that
fires when the generator returns, which lets processes wait on each other.
"""

from __future__ import annotations

import typing

from repro.des.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.des.engine import Environment

ProcessGenerator = typing.Generator[Event, object, object]


class _Start:
    """The outcome a process's first resume reads: success, no value."""

    __slots__ = ()
    _ok = True
    _value = None


_START = _Start()


class Process(Event):
    """A running simulation process wrapping a generator."""

    __slots__ = ("generator", "name")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: typing.Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"expected a generator, got {generator!r}")
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        env._processes[self] = None
        # the first resume: a same-instant call, as a succeeded event's is
        env.call_at(env._now, self._resume, _START)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    # -- engine plumbing ---------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        env = self.env
        env._active_process = self
        try:
            if event._ok:
                next_target = self.generator.send(event._value)
            else:
                next_target = self.generator.throw(
                    typing.cast(BaseException, event._value)
                )
        except StopIteration as stop:
            env._active_process = None
            env._processes.pop(self, None)
            self.succeed(stop.value)
            return
        except BaseException as exc:
            env._active_process = None
            env._processes.pop(self, None)
            if env.strict:
                raise
            self.fail(exc)
            return
        env._active_process = None

        if not isinstance(next_target, Event):
            raise TypeError(
                f"process {self.name!r} yielded {next_target!r}, "
                "which is not an Event"
            )
        if next_target.env is not env:
            raise ValueError("yielded event belongs to another environment")
        if next_target._processed:
            # already fired: resume with its outcome in a same-instant call
            env.call_at(env._now, self._resume, next_target)
        else:
            next_target.callbacks.append(self._resume)

    def __repr__(self) -> str:
        status = "alive" if self.is_alive else "done"
        return f"<Process {self.name!r} ({status})>"
