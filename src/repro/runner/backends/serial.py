"""The serial backend: every task inline, in the parent process.

:class:`SerialBackend` runs tasks at submit time.  It is the conformance
*reference*: every other backend must reproduce its result bytes.  The
runner short-circuits ``serial`` (and a single-worker local pool) to its
historical in-process path, but the class is a fully working backend in
its own right so the conformance battery can drive all backends through
one interface.
"""

from __future__ import annotations

import typing

from repro.runner.backends.base import ExecutorBackend, JobOutcome
from repro.runner.backends.task import run_task


class SerialBackend(ExecutorBackend):
    """Runs every task inline, in submission order (the reference)."""

    def __init__(self, workers: int = 1) -> None:
        del workers  # serial by definition
        self._ready: typing.List[JobOutcome] = []

    def submit(
        self, task: typing.Dict[str, typing.Any], isolated: bool = False
    ) -> None:
        del isolated
        try:
            result = run_task(task)
        except Exception as exc:
            self._ready.append(JobOutcome(
                cell=task["cell"],
                error=f"{type(exc).__name__}: {exc}",
                exception=exc,
            ))
        else:
            self._ready.append(JobOutcome(cell=task["cell"], result=result))

    def poll(
        self, timeout: typing.Optional[float]
    ) -> typing.List[JobOutcome]:
        del timeout  # everything completed at submit time
        ready, self._ready = self._ready, []
        return ready

    def shutdown(self) -> None:
        self._ready.clear()
