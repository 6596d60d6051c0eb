"""The executor-backend protocol the orchestration core drives.

The runner decides *what* to run (dispatch order, dedup, cache
lookups, stall detection, retry and isolation policy, manifests); a
backend decides *where* it runs.  The contract is deliberately small:

- :meth:`ExecutorBackend.submit` takes one :mod:`task <.task>` dict --
  plain JSON-able data, so a backend can ship it across a process
  boundary unpickled;
- :meth:`ExecutorBackend.poll` returns completed work as
  :class:`JobOutcome`\\ s, with worker deaths reported as
  ``crashed=True`` outcomes rather than exceptions, so the runner can
  triage them (retry, requeue bystanders, fail repeat offenders);
- :meth:`ExecutorBackend.kill` terminates one stalled run;
- :meth:`ExecutorBackend.shutdown` releases everything, including on
  Ctrl-C.

:attr:`ExecutorBackend.isolates_runs` tells the runner whether killing
(or losing) one worker can take innocent in-flight runs down with it: a
shared process pool breaks wholesale, a per-run subprocess does not.
The triage logic uses that to decide who counts as a bystander.
"""

from __future__ import annotations

import abc
import dataclasses
import os
import pathlib
import typing


def child_environment() -> typing.Dict[str, str]:
    """The environment spawned workers get: parent env + importability.

    Subprocess backends launch ``python -m repro...`` children, so the
    directory holding the ``repro`` package is prepended to
    ``PYTHONPATH`` (a pip-installed package needs nothing, but a
    src-layout checkout run via ``PYTHONPATH=src`` must propagate it).
    Test hooks and everything else inherit as-is.
    """
    import repro

    env = dict(os.environ)
    package_root = str(
        pathlib.Path(repro.__file__).resolve().parent.parent
    )
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    return env


class WorkerTaskError(RuntimeError):
    """A deterministic in-run exception, re-raised across a boundary.

    A backend that receives results as JSON (the asyncio subprocess)
    cannot reconstruct the original exception object; the orchestrator
    raises this carrier instead, with the worker's ``type: message``
    string (and traceback, when available).
    """

    def __init__(
        self, message: str, traceback: typing.Optional[str] = None
    ) -> None:
        super().__init__(message)
        self.traceback = traceback


@dataclasses.dataclass
class JobOutcome:
    """One finished (or dead) job as reported by :meth:`poll`.

    Exactly one of three shapes:

    - success: ``result`` set, ``error`` None, ``crashed`` False;
    - deterministic failure: ``error`` set (worker raised; retrying
      cannot help), ``exception`` carries the original object when the
      backend still has it (local pool);
    - crash: ``crashed`` True (worker process died abruptly -- OOM
      kill, segfault, stall kill); retryable.
    """

    cell: int
    result: typing.Any = None
    error: typing.Optional[str] = None
    traceback: typing.Optional[str] = None
    exception: typing.Optional[BaseException] = None
    crashed: bool = False


class ExecutorBackend(abc.ABC):
    """Where runs execute; see the module docstring for the contract."""

    #: killing or losing one worker cannot crash other in-flight runs
    isolates_runs = False

    def prepare(self, jobs: int) -> None:
        """Sizing hint: about to submit ``jobs`` tasks as one round."""

    @abc.abstractmethod
    def submit(
        self, task: typing.Dict[str, typing.Any], isolated: bool = False
    ) -> None:
        """Accept one task dict (see :mod:`.task`) for execution.

        ``isolated`` asks the backend to shield other runs from this
        one (it is a retry suspect): the local pool runs it in a fresh
        single-worker pool; backends whose runs are naturally isolated
        may ignore the flag.
        """

    @abc.abstractmethod
    def poll(
        self, timeout: typing.Optional[float]
    ) -> typing.List[JobOutcome]:
        """Block up to ``timeout`` seconds for completed jobs.

        Returns every outcome available once at least one is (possibly
        ``[]`` on timeout).  ``timeout=None`` blocks until something
        completes.
        """

    def kill(self, cell: int, pid: typing.Optional[int]) -> bool:
        """Terminate the worker executing ``cell``; True when targeted.

        ``pid`` is the worker pid the telemetry stream reported (None
        when the run never emitted ``run.start``).  The runner calls it
        for every stalled run of a pool backend; the default refuses.
        """
        del cell, pid
        return False

    @abc.abstractmethod
    def shutdown(self) -> None:
        """Release all resources; must be safe after Ctrl-C."""
