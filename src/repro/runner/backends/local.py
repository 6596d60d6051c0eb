"""The classic in-host backend: one local process pool.

:class:`LocalPoolBackend` is the historical ``ParallelRunner`` engine
(one ``concurrent.futures.ProcessPoolExecutor``) moved behind the
backend protocol, byte-identical in behaviour: the pool is recycled
per dispatch round (so an isolation round gets its own single-worker
pool), a worker death surfaces as ``BrokenProcessPool`` and converts
*every* in-flight job into a crashed :class:`JobOutcome` in one poll
batch (``isolates_runs=False`` -- the orchestrator triages bystanders),
and a stall kill signals the worker pid directly, deliberately breaking
the pool.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.process
import os
import signal
import typing

from repro.runner.backends.base import ExecutorBackend, JobOutcome
from repro.runner.backends.task import run_task_indexed


class LocalPoolBackend(ExecutorBackend):
    """Today's process pool behind the protocol (default backend)."""

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, workers)
        self._width = self.workers
        self._pool: typing.Optional[
            concurrent.futures.ProcessPoolExecutor
        ] = None
        self._inflight: typing.Dict[concurrent.futures.Future, int] = {}

    def prepare(self, jobs: int) -> None:
        """Recycle the pool per round (the historical pool lifecycle).

        Sizing the fresh pool to the round keeps the old semantics: an
        isolation round of one retried cell gets a single-worker pool,
        so a deterministic crasher can only take itself down.
        """
        self._discard_pool()
        self._width = min(self.workers, max(1, jobs))

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self._width
            )
        return self._pool

    def submit(
        self, task: typing.Dict[str, typing.Any], isolated: bool = False
    ) -> None:
        del isolated  # prepare() already sized the round's pool
        future = self._ensure_pool().submit(run_task_indexed, task)
        self._inflight[future] = task["cell"]

    def poll(
        self, timeout: typing.Optional[float]
    ) -> typing.List[JobOutcome]:
        if not self._inflight:
            return []
        ready, _ = concurrent.futures.wait(
            list(self._inflight),
            timeout=timeout,
            return_when=concurrent.futures.FIRST_COMPLETED,
        )
        outcomes: typing.List[JobOutcome] = []
        breakage: typing.Optional[BaseException] = None
        for future in ready:
            cell = self._inflight.pop(future)
            try:
                _cell, result = future.result()
            except concurrent.futures.process.BrokenProcessPool as exc:
                breakage = exc
                outcomes.append(JobOutcome(
                    cell=cell, crashed=True, error=str(exc)
                ))
            except Exception as exc:
                outcomes.append(JobOutcome(
                    cell=cell,
                    error=f"{type(exc).__name__}: {exc}",
                    exception=exc,
                ))
            else:
                outcomes.append(JobOutcome(cell=cell, result=result))
        if breakage is not None:
            # the shared pool is gone: every remaining in-flight job is
            # a casualty of the same breakage, reported in this batch
            for cell in self._inflight.values():
                outcomes.append(JobOutcome(
                    cell=cell, crashed=True, error=str(breakage)
                ))
            self._inflight.clear()
            self._discard_pool()
        return outcomes

    def kill(self, cell: int, pid: typing.Optional[int]) -> bool:
        del cell
        if pid is not None:
            try:
                os.kill(pid, getattr(signal, "SIGKILL", signal.SIGTERM))
                return True
            except OSError:
                pass  # already gone; the pool will notice either way
        # pid unknown (no run.start yet): take the pool down so the
        # batch can triage and continue rather than hang forever
        if self._pool is not None:
            for process in list(
                getattr(self._pool, "_processes", {}).values()
            ):
                process.terminate()
        return True

    def _discard_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self._inflight.clear()

    def shutdown(self) -> None:
        self._discard_pool()
