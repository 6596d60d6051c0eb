"""One asyncio-supervised subprocess per run: per-run kill, no pool.

The process-pool backend pays for its shared pool when a run stalls:
killing the hung worker breaks the pool and every in-flight sibling
must be triaged.  Here every run gets its own child process
(``python -m repro.runner.backends.subproc``): the task dict goes in on
stdin, the result comes back as one record-separator-framed JSON line
on stdout, and killing a stalled run is ``SIGKILL`` on exactly one pid
-- siblings never notice (``isolates_runs``).

Supervision runs on a private asyncio event loop in a daemon thread;
``workers`` concurrent children are admitted by a semaphore.  The
synchronous backend interface talks to the loop with
``run_coroutine_threadsafe`` and receives finished work through a
thread-safe queue, so the orchestrator's ``poll`` is an ordinary
blocking ``Queue.get``.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import typing

from repro.runner.backends.base import (
    ExecutorBackend,
    JobOutcome,
    child_environment,
)
from repro.runner.backends.subproc import RESULT_FRAME
from repro.sim.metrics import SimulationResult


class AsyncioSubprocessBackend(ExecutorBackend):
    """Supervises one subprocess per run on a background event loop."""

    isolates_runs = True

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, workers)
        self._outcomes: "queue.Queue[JobOutcome]" = queue.Queue()
        self._loop: typing.Optional[asyncio.AbstractEventLoop] = None
        self._thread: typing.Optional[threading.Thread] = None
        self._semaphore: typing.Optional[asyncio.Semaphore] = None
        #: cell -> live child process, for per-run kill
        self._children: typing.Dict[int, typing.Any] = {}
        self._env = child_environment()

    # -- loop plumbing ------------------------------------------------------

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            loop = asyncio.new_event_loop()

            def drive() -> None:
                asyncio.set_event_loop(loop)
                loop.run_forever()

            thread = threading.Thread(
                target=drive,
                name="repro-asyncio-backend",
                daemon=True,
            )
            thread.start()
            # the semaphore must be created inside the loop (3.9 binds
            # primitives to the running loop)
            asyncio.run_coroutine_threadsafe(
                self._init_semaphore(), loop
            ).result()
            self._loop, self._thread = loop, thread
        return self._loop

    async def _init_semaphore(self) -> None:
        self._semaphore = asyncio.Semaphore(self.workers)

    # -- the backend interface ----------------------------------------------

    def submit(
        self, task: typing.Dict[str, typing.Any], isolated: bool = False
    ) -> None:
        del isolated  # every run is isolated by construction
        loop = self._ensure_loop()
        asyncio.run_coroutine_threadsafe(self._supervise(task), loop)

    async def _supervise(self, task: typing.Dict[str, typing.Any]) -> None:
        cell = int(task["cell"])
        assert self._semaphore is not None
        async with self._semaphore:
            try:
                child = await asyncio.create_subprocess_exec(
                    sys.executable,
                    "-m",
                    "repro.runner.backends.subproc",
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    env=self._env,
                )
            except OSError as exc:
                self._outcomes.put(JobOutcome(
                    cell=cell, error=f"could not spawn worker: {exc}"
                ))
                return
            self._children[cell] = child
            try:
                stdout, _ = await child.communicate(
                    json.dumps(task).encode("utf-8")
                )
            finally:
                self._children.pop(cell, None)
            self._outcomes.put(self._outcome(task, child, stdout))

    def _outcome(
        self,
        task: typing.Dict[str, typing.Any],
        child: typing.Any,
        stdout: bytes,
    ) -> JobOutcome:
        cell = int(task["cell"])
        frame: typing.Optional[bytes] = None
        marker = RESULT_FRAME.encode("ascii")
        for line in stdout.splitlines():
            if line.startswith(marker):
                frame = line[len(marker):]
        if frame is None:
            # no result frame: the child died before reporting (kill,
            # OOM, os._exit) -- retryable, exactly like a pool breakage
            return JobOutcome(
                cell=cell,
                crashed=True,
                error=f"worker exited {child.returncode} without result",
            )
        try:
            reply = json.loads(frame.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return JobOutcome(
                cell=cell, crashed=True,
                error=f"unreadable worker result frame: {exc}",
            )
        if reply.get("ok"):
            return JobOutcome(
                cell=cell, result=SimulationResult.from_dict(reply["result"])
            )
        return JobOutcome(
            cell=cell,
            error=str(reply.get("error", "worker failed")),
            traceback=reply.get("traceback"),
        )

    def poll(
        self, timeout: typing.Optional[float]
    ) -> typing.List[JobOutcome]:
        outcomes: typing.List[JobOutcome] = []
        try:
            outcomes.append(self._outcomes.get(timeout=timeout))
        except queue.Empty:
            return []
        while True:
            try:
                outcomes.append(self._outcomes.get_nowait())
            except queue.Empty:
                return outcomes

    def kill(self, cell: int, pid: typing.Optional[int]) -> bool:
        child = self._children.get(cell)
        target = child.pid if child is not None else pid
        if target is None:
            return False
        try:
            os.kill(target, getattr(signal, "SIGKILL", signal.SIGTERM))
        except OSError:
            pass  # already exiting; communicate() resolves either way
        return True

    def shutdown(self) -> None:
        for child in list(self._children.values()):
            try:
                child.kill()
            except (OSError, ProcessLookupError):
                pass
        self._children.clear()
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=2.0)
            self._loop, self._thread, self._semaphore = None, None, None
