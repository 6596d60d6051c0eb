"""The worker pool: long-lived worker processes, each killable alone.

A batch with more than one worker runs on a :class:`WorkerPool`.  Each
worker is a process of :func:`multiprocessing.get_context` (the
platform's default start method), joined to the parent by one ``Pipe``.
It serves one task at a time in :func:`serve` until it is killed, so a
batch pays process start-up once per worker, not once per run.

Killing a stalled run is ``SIGKILL`` to exactly its own worker; the
other workers never notice.  A worker that dies (a kill, an OOM kill, a
segfault) fails only the cell it was running, with a ``crashed``
outcome, and a new worker takes its place at the next dispatch.  Tasks
and results travel by pickle.

The pipe also carries a run's telemetry records (dicts) ahead of its
reply (a tuple).  The pool hands each record to ``on_record`` as it
arrives, and always drains a worker's unread records before it reports
that worker's cell, done or crashed, so a cell's records reach the
parent's stream before its outcome does.
"""

from __future__ import annotations

import collections
import dataclasses
import multiprocessing
import multiprocessing.connection
import signal
import traceback
import typing

from repro.runner.worker import execute_spec

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import Record

#: one run: the keyword arguments of :func:`execute_spec`
Task = typing.Dict[str, typing.Any]


def serve(conn: multiprocessing.connection.Connection) -> None:
    """A worker's life: run each task ``conn`` delivers and send back
    ``(True, result, None)`` or ``(False, "Type: message", traceback)``,
    until the parent closes its end.  A task's telemetry context sends
    its records over ``conn`` too, before the reply."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        if task.get("telemetry") is not None:
            task["telemetry"].send = conn.send
        try:
            reply = (True, execute_spec(**task), None)
        except Exception as exc:
            reply = (
                False, f"{type(exc).__name__}: {exc}", traceback.format_exc()
            )
        conn.send(reply)


@dataclasses.dataclass
class JobOutcome:
    """One finished cell: a ``result``; a deterministic ``error`` (the
    run raised) with the worker's ``traceback``; or ``crashed`` (the
    worker died or was killed), which a retry may cure."""

    cell: int
    result: typing.Any = None
    error: typing.Optional[str] = None
    traceback: typing.Optional[str] = None
    crashed: bool = False


class _Worker(typing.NamedTuple):
    process: typing.Any
    conn: multiprocessing.connection.Connection


class WorkerPool:
    """Up to ``workers`` worker processes, kept for one batch; their
    telemetry records go to ``on_record`` (required once a task carries
    a telemetry context)."""

    def __init__(
        self,
        workers: int,
        on_record: typing.Optional[typing.Callable[[Record], None]] = None,
    ) -> None:
        self.workers = max(1, workers)
        self._on_record = on_record
        self._context = multiprocessing.get_context()
        self._queue: typing.Deque[typing.Tuple[int, Task]] = (
            collections.deque()
        )
        self._idle: typing.List[_Worker] = []
        self._busy: typing.Dict[int, _Worker] = {}
        self._ready: typing.List[JobOutcome] = []

    @property
    def active(self) -> bool:
        """Whether a submitted cell has not been reported by :meth:`poll`."""
        return bool(self._queue or self._busy or self._ready)

    def submit(self, cell: int, task: Task) -> None:
        """Queue ``task`` for ``cell``; it starts as soon as a worker is
        free."""
        self._queue.append((cell, task))
        self._dispatch()

    def poll(self, timeout: typing.Optional[float]) -> typing.List[JobOutcome]:
        """Wait up to ``timeout`` seconds (``None``: until one cell is
        done), passing on the telemetry records that arrive, and return
        every outcome available."""
        while not self._ready and self._busy:
            owners: typing.Dict[typing.Any, int] = {}
            for cell, worker in self._busy.items():
                owners[worker.conn] = owners[worker.process.sentinel] = cell
            ready = multiprocessing.connection.wait(list(owners), timeout)
            for cell in dict.fromkeys(owners[waitable] for waitable in ready):
                outcome = self._collect(cell)
                if outcome is not None:
                    self._ready.append(outcome)
            if timeout is not None:
                break
        self._dispatch()
        outcomes, self._ready = self._ready, []
        return outcomes

    def kill(self, cell: int) -> bool:
        """SIGKILL the worker running ``cell``; True when it was running.
        The cell is reported as crashed by the next :meth:`poll`."""
        worker = self._busy.pop(cell, None)
        if worker is None:
            return False
        self._reap(worker)
        self._ready.append(JobOutcome(cell, crashed=True, error="killed"))
        return True

    def shutdown(self) -> None:
        """Kill and join every worker (safe at any point, Ctrl-C too)."""
        workers = self._idle + list(self._busy.values())
        self._idle, self._busy = [], {}
        self._queue.clear()
        self._ready.clear()
        for worker in workers:
            worker.process.kill()
        for worker in workers:
            self._reap(worker)

    def _dispatch(self) -> None:
        while self._queue and (self._idle or len(self._busy) < self.workers):
            worker = self._idle.pop() if self._idle else self._spawn()
            cell, task = self._queue.popleft()
            try:
                worker.conn.send(task)
            except OSError as exc:  # the idle worker died meanwhile
                self._reap(worker)
                self._ready.append(JobOutcome(
                    cell, crashed=True, error=f"worker lost: {exc}"
                ))
            else:
                self._busy[cell] = worker

    def _spawn(self) -> _Worker:
        parent, child = self._context.Pipe()
        process = self._context.Process(
            target=serve, args=(child,), daemon=True
        )
        process.start()
        child.close()  # EOF on ``parent`` then means the worker is gone
        return _Worker(process, parent)

    def _collect(self, cell: int) -> typing.Optional[JobOutcome]:
        """Read the next message of ``cell``'s worker: its outcome, or
        None after passing on a telemetry record (the run goes on)."""
        worker = self._busy[cell]
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            del self._busy[cell]
            return JobOutcome(
                cell, crashed=True,
                error=f"worker exited {self._reap(worker)} without a result",
            )
        if isinstance(message, dict):
            self._on_record(message)
            return None
        del self._busy[cell]
        self._idle.append(worker)
        ok, value, trace = message
        if ok:
            return JobOutcome(cell, result=value)
        return JobOutcome(cell, error=value, traceback=trace)

    def _reap(self, worker: _Worker) -> typing.Optional[int]:
        """Kill and join ``worker``, then pass on the records it sent
        before it died."""
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join()
        try:
            while worker.conn.poll():
                message = worker.conn.recv()
                if isinstance(message, dict):
                    self._on_record(message)
        except (EOFError, OSError):
            pass  # the dead worker's end is closed: all read
        worker.conn.close()
        return worker.process.exitcode
