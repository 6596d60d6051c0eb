"""Multi-host execution over a shared spool directory.

No server, no sockets: hosts cooperate through three directories on a
filesystem they all mount (NFS or just a local tmpdir for single-host
use)::

    <spool>/pending/   tickets waiting for a worker
    <spool>/claimed/   tickets a worker owns (plus .owner sidecars)
    <spool>/done/      framed result files the submitter collects

A *ticket* is one task dict (see :mod:`.task`) written as JSON.
Claiming is one atomic ``os.rename`` from ``pending/`` to ``claimed/``
-- POSIX guarantees exactly one claimer wins, so no locking protocol is
needed.  The winner records its identity in a ``.owner.json`` sidecar,
keeps the claim file's mtime fresh from a toucher thread (the *lease*),
runs the task, writes the result into ``done/`` (unique temp +
``os.rename``, so readers never see a torn file) and only then releases
the claim.  A ticket is therefore always visible in at least one of the
three directories; the submitter declares a claimed ticket crashed when
its owner process is known dead or its lease mtime went stale.

:class:`SharedDirBackend` is the submitter side: it spools tickets,
optionally spawns ``local_workers`` worker-pool processes of its own
(so the backend works out of the box on one host), and reports
outcomes.  :func:`worker_pool_loop` is the worker side -- ``repro
worker-pool --spool DIR`` runs it so any idle host pointed at the
directory joins the sweep.  Results and telemetry flow back through
the shared filesystem: tickets carry the telemetry path, and the
``O_APPEND`` sink plus content-addressed caches already tolerate many
hosts appending at once.

Stalls cannot be killed across hosts (``supports_kill=False``): the
orchestrator abandons the stalled attempt instead (see
:meth:`SharedDirBackend.cancel`); an abandoned worker's late result
file is ignored and only litters the spool.
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import subprocess
import sys
import tempfile
import threading
import time
import typing
import uuid

from repro.runner.backends.base import (
    BackendCapabilities,
    ExecutorBackend,
    JobOutcome,
    child_environment,
)
from repro.runner.backends.task import decode_result, encode_result, run_task

#: default seconds of mtime silence after which a claim is presumed dead
DEFAULT_LEASE_S = 15.0
#: how often a worker refreshes its claim's mtime (fraction of lease)
TOUCH_FRACTION = 0.25
#: how often an idle worker re-lists ``pending/``
CLAIM_POLL_S = 0.2

_TICKET_SUFFIX = ".task.json"
_OWNER_SUFFIX = ".owner.json"
_RESULT_SUFFIX = ".result.json"


def spool_dirs(
    spool: typing.Union[str, pathlib.Path],
) -> typing.Tuple[pathlib.Path, pathlib.Path, pathlib.Path]:
    """Ensure and return ``(pending, claimed, done)`` under ``spool``."""
    root = pathlib.Path(spool)
    pending = root / "pending"
    claimed = root / "claimed"
    done = root / "done"
    for directory in (pending, claimed, done):
        directory.mkdir(parents=True, exist_ok=True)
    return pending, claimed, done


def _write_json(
    directory: pathlib.Path, name: str, payload: typing.Any
) -> pathlib.Path:
    """Write ``<directory>/<name>`` so readers never see it torn."""
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(directory), prefix=".spool.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, sort_keys=True))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    path = directory / name
    os.rename(tmp, path)
    return path


def _read_json(path: pathlib.Path) -> typing.Optional[typing.Any]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None


class SharedDirBackend(ExecutorBackend):
    """The submitter side of the spool protocol."""

    def __init__(
        self,
        workers: int = 1,
        spool: typing.Optional[typing.Union[str, pathlib.Path]] = None,
        local_workers: typing.Optional[int] = None,
        lease_s: float = DEFAULT_LEASE_S,
        **_: typing.Any,
    ) -> None:
        if spool is None:
            raise ValueError(
                "the shared-dir backend needs a spool directory "
                "(repro --spool / backend_options={'spool': ...})"
            )
        self.workers = max(1, workers)
        self.spool = pathlib.Path(spool)
        #: worker-pool processes this backend runs itself; 0 relies
        #: entirely on external `repro worker-pool` hosts
        self.local_workers = (
            self.workers if local_workers is None else max(0, local_workers)
        )
        self.lease_s = lease_s
        self.pending, self.claimed, self.done = spool_dirs(self.spool)
        #: ticket name -> task, for every outstanding submission
        self._inflight: typing.Dict[str, typing.Dict[str, typing.Any]] = {}
        self._attempts: typing.Dict[int, int] = {}
        self._nonce = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self._procs: typing.List[subprocess.Popen] = []
        #: pids of every local worker that ever died (claims by these
        #: are crashes however many scans later the claim turns up)
        self._dead_pids: typing.Set[int] = set()
        self._env = child_environment()

    @property
    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            isolates_runs=True,
            distributed=True,
            max_workers=None if self.local_workers == 0 else self.workers,
        )

    # -- local worker fleet -------------------------------------------------

    def _spawn_worker(self) -> None:
        self._procs.append(subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.runner.backends.shared_dir",
                str(self.spool),
                "--lease",
                str(self.lease_s),
            ],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=self._env,
        ))

    def _tend_workers(self) -> typing.Set[int]:
        """Reap dead local workers, respawn capacity; returns dead pids."""
        dead = [proc for proc in self._procs if proc.poll() is not None]
        if dead:
            self._dead_pids.update(proc.pid for proc in dead)
            self._procs = [p for p in self._procs if p.poll() is None]
        while self._inflight and len(self._procs) < self.local_workers:
            self._spawn_worker()
        return self._dead_pids

    # -- the backend interface ----------------------------------------------

    def submit(
        self, task: typing.Dict[str, typing.Any], isolated: bool = False
    ) -> None:
        del isolated  # a run owns its worker process by construction
        cell = int(task["cell"])
        attempt = self._attempts.get(cell, 0) + 1
        self._attempts[cell] = attempt
        name = f"{self._nonce}-c{cell}-a{attempt}{_TICKET_SUFFIX}"
        _write_json(self.pending, name, task)
        self._inflight[name] = task
        self._tend_workers()

    def poll(
        self, timeout: typing.Optional[float]
    ) -> typing.List[JobOutcome]:
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            outcomes = self._scan()
            if outcomes:
                return outcomes
            if not self._inflight:
                return []
            if deadline is not None and time.monotonic() >= deadline:
                return []
            time.sleep(CLAIM_POLL_S / 2)

    def _scan(self) -> typing.List[JobOutcome]:
        dead_pids = self._tend_workers()
        outcomes: typing.List[JobOutcome] = []
        for name, task in list(self._inflight.items()):
            outcome = self._inspect(name, task, dead_pids)
            if outcome is not None:
                del self._inflight[name]
                outcomes.append(outcome)
        return outcomes

    def _inspect(
        self,
        name: str,
        task: typing.Dict[str, typing.Any],
        dead_pids: typing.Set[int],
    ) -> typing.Optional[JobOutcome]:
        cell = int(task["cell"])
        result_path = self.done / f"{name}{_RESULT_SUFFIX}"
        reply = _read_json(result_path)
        if reply is not None:
            try:
                result_path.unlink()
            except OSError:
                pass
            if reply.get("ok"):
                return JobOutcome(
                    cell=cell, result=decode_result(task, reply["result"])
                )
            return JobOutcome(
                cell=cell,
                error=str(reply.get("error", "worker failed")),
                traceback=reply.get("traceback"),
            )
        claim = self.claimed / name
        try:
            claim_age = time.time() - claim.stat().st_mtime
        except OSError:
            return None  # still pending, or mid-transition to done/
        owner = _read_json(self.claimed / f"{name}{_OWNER_SUFFIX}")
        owner_pid = owner.get("pid") if isinstance(owner, dict) else None
        if owner_pid in dead_pids or claim_age > self.lease_s:
            self._release_claim(name)
            return JobOutcome(
                cell=cell,
                crashed=True,
                error=(
                    f"spool worker died (pid {owner_pid})"
                    if owner_pid in dead_pids
                    else f"claim lease expired after {claim_age:.1f}s"
                ),
            )
        return None

    def _release_claim(self, name: str) -> None:
        for path in (
            self.claimed / name,
            self.claimed / f"{name}{_OWNER_SUFFIX}",
        ):
            try:
                path.unlink()
            except OSError:
                pass

    def cancel(self, cell: int) -> bool:
        """Abandon ``cell``'s outstanding attempt (stall on a remote).

        An unclaimed ticket is withdrawn outright.  A claimed one stays
        with its worker -- there is no cross-host kill -- but is dropped
        from tracking, so a late result only litters ``done/``.
        """
        withdrew = False
        for name, task in list(self._inflight.items()):
            if int(task["cell"]) != cell:
                continue
            del self._inflight[name]
            try:
                (self.pending / name).unlink()
                withdrew = True
            except OSError:
                pass  # already claimed; its worker keeps running
        return withdrew

    def shutdown(self) -> None:
        for name in list(self._inflight):
            try:
                (self.pending / name).unlink()
            except OSError:
                pass
        self._inflight.clear()
        for proc in self._procs:
            try:
                proc.kill()
            except OSError:
                pass
        for proc in self._procs:
            try:
                proc.wait(timeout=2.0)
            except (OSError, subprocess.TimeoutExpired):
                pass
        self._procs.clear()


# -- janitoring ---------------------------------------------------------------

#: default seconds after which a done/ result counts as abandoned litter
DEFAULT_DONE_MAX_AGE_S = 3600.0


def janitor_sweep(
    spool: typing.Union[str, pathlib.Path],
    lease_s: float = DEFAULT_LEASE_S,
    done_max_age_s: float = DEFAULT_DONE_MAX_AGE_S,
) -> typing.Dict[str, int]:
    """Remove abandoned spool litter; returns per-category counts.

    A healthy spool cleans itself: workers release claims after writing
    results, submitters consume result frames.  What accumulates is the
    debris of departed processes -- result frames nobody will ever
    collect (the submitter abandoned the attempt or was killed), claims
    whose lease went stale with no submitter left to notice, owner
    sidecars orphaned by a crashed worker, and torn ``.spool.*`` temp
    files.  The sweep removes exactly those four classes and never
    touches ``pending/`` tickets or fresh claims, so running it beside
    a live sweep is safe: live claims stay within their lease and live
    results are consumed faster than ``done_max_age_s``.
    """
    pending, claimed, done = spool_dirs(spool)
    now = time.time()
    counts = {
        "done_removed": 0,
        "claims_removed": 0,
        "owners_removed": 0,
        "temps_removed": 0,
    }

    def age_of(path: pathlib.Path) -> typing.Optional[float]:
        try:
            return now - path.stat().st_mtime
        except OSError:
            return None  # vanished mid-sweep: someone else handled it

    def remove(path: pathlib.Path, category: str) -> None:
        try:
            path.unlink()
        except OSError:
            return
        counts[category] += 1

    for entry in sorted(done.iterdir()):
        if entry.name.endswith(_RESULT_SUFFIX):
            age = age_of(entry)
            if age is not None and age > done_max_age_s:
                remove(entry, "done_removed")
    for entry in sorted(claimed.iterdir()):
        if entry.name.endswith(_OWNER_SUFFIX):
            ticket = claimed / entry.name[: -len(_OWNER_SUFFIX)]
            if not ticket.exists():
                remove(entry, "owners_removed")
            continue
        if entry.name.endswith(_TICKET_SUFFIX):
            age = age_of(entry)
            if age is not None and age > lease_s:
                remove(claimed / f"{entry.name}{_OWNER_SUFFIX}",
                       "owners_removed")
                remove(entry, "claims_removed")
    for directory in (pending, claimed, done):
        for entry in sorted(directory.glob(".spool.*")):
            age = age_of(entry)
            if age is not None and age > max(lease_s, done_max_age_s):
                remove(entry, "temps_removed")
    return counts


# -- the worker side ----------------------------------------------------------


def _claim_one(
    pending: pathlib.Path, claimed: pathlib.Path
) -> typing.Optional[str]:
    """Atomically claim the oldest pending ticket; None when idle."""
    try:
        names = sorted(
            entry.name
            for entry in pending.iterdir()
            if entry.name.endswith(_TICKET_SUFFIX)
        )
    except OSError:
        return None
    for name in names:
        try:
            os.rename(pending / name, claimed / name)
        except OSError:
            continue  # another worker won this ticket; try the next
        # rename keeps the file's mtime, so refresh it: the lease
        # clock starts at claim time, not at ticket-write time
        try:
            os.utime(claimed / name)
        except OSError:
            pass
        return name
    return None


def _process_ticket(
    name: str,
    claimed: pathlib.Path,
    done: pathlib.Path,
    lease_s: float,
) -> None:
    """Run one claimed ticket and publish its result frame."""
    task = _read_json(claimed / name)
    _write_json(
        claimed,
        f"{name}{_OWNER_SUFFIX}",
        {"pid": os.getpid(), "host": socket.gethostname()},
    )
    stop = threading.Event()

    def touch() -> None:
        while not stop.wait(max(0.05, lease_s * TOUCH_FRACTION)):
            try:
                os.utime(claimed / name)
            except OSError:
                return  # claim released under us (submitter gave up)

    toucher = threading.Thread(target=touch, daemon=True)
    toucher.start()
    try:
        if task is None:
            reply: typing.Dict[str, typing.Any] = {
                "ok": False, "error": "unreadable ticket",
            }
        else:
            try:
                reply = {
                    "ok": True,
                    "result": encode_result(task, run_task(task)),
                }
            except Exception as exc:
                import traceback

                reply = {
                    "ok": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "traceback": traceback.format_exc(),
                }
        # result first, then release: the ticket is never in limbo
        _write_json(done, f"{name}{_RESULT_SUFFIX}", reply)
    finally:
        stop.set()
        for path in (claimed / name, claimed / f"{name}{_OWNER_SUFFIX}"):
            try:
                path.unlink()
            except OSError:
                pass


def worker_pool_loop(
    spool: typing.Union[str, pathlib.Path],
    poll_s: float = CLAIM_POLL_S,
    lease_s: float = DEFAULT_LEASE_S,
    idle_exit_s: typing.Optional[float] = None,
    max_tasks: typing.Optional[int] = None,
    janitor_every_s: typing.Optional[float] = None,
    done_max_age_s: float = DEFAULT_DONE_MAX_AGE_S,
) -> int:
    """Claim and execute tickets until told (or idled) out.

    The body of ``repro worker-pool``: point any host at a spool
    directory and it serves whatever sweeps spool tickets there.
    Returns the number of tickets processed (``idle_exit_s`` and
    ``max_tasks`` bound the loop; both default to running forever).
    ``janitor_every_s`` additionally runs :func:`janitor_sweep` at that
    cadence, so long-lived workers keep their spool free of litter.
    """
    pending, claimed, done = spool_dirs(spool)
    processed = 0
    idle_since = time.monotonic()
    last_sweep = time.monotonic()
    while True:
        if (
            janitor_every_s is not None
            and time.monotonic() - last_sweep >= janitor_every_s
        ):
            janitor_sweep(
                spool, lease_s=lease_s, done_max_age_s=done_max_age_s
            )
            last_sweep = time.monotonic()
        name = _claim_one(pending, claimed)
        if name is None:
            if (
                idle_exit_s is not None
                and time.monotonic() - idle_since >= idle_exit_s
            ):
                return processed
            time.sleep(poll_s)
            continue
        _process_ticket(name, claimed, done, lease_s)
        processed += 1
        idle_since = time.monotonic()
        if max_tasks is not None and processed >= max_tasks:
            return processed


def _main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    """``python -m repro.runner.backends.shared_dir <spool> [...]``."""
    import argparse

    parser = argparse.ArgumentParser(
        description="serve a shared-dir spool as a worker"
    )
    parser.add_argument("spool", help="spool directory to serve")
    parser.add_argument("--poll", type=float, default=CLAIM_POLL_S)
    parser.add_argument("--lease", type=float, default=DEFAULT_LEASE_S)
    parser.add_argument("--idle-exit", type=float, default=None)
    parser.add_argument("--max-tasks", type=int, default=None)
    args = parser.parse_args(argv)
    worker_pool_loop(
        args.spool,
        poll_s=args.poll,
        lease_s=args.lease,
        idle_exit_s=args.idle_exit,
        max_tasks=args.max_tasks,
    )
    return 0


if __name__ == "__main__":
    sys.exit(_main())
