"""Parallel batch execution of run specs with caching and manifests.

:class:`ParallelRunner` takes batches of :class:`~repro.runner.spec.RunSpec`
and returns their :class:`~repro.sim.metrics.SimulationResult`s in input
order, no matter how execution interleaves:

- duplicate specs inside a batch are *coalesced* (simulated once);
- specs seen before are served from the :class:`ResultCache`, unless
  a trace or series artifact they ask for is missing;
- the remainder runs in-process (``backend="serial"``, or one worker)
  or fans out over a :class:`~repro.runner.pool.WorkerPool` of
  long-lived worker processes, streaming a progress line per completed
  run;
- every batch writes a JSON manifest under ``runs_dir`` -- a MANIFEST
  artifact (:mod:`repro.artifact`), whose envelope carries the git SHA
  and creation time -- recording the specs, wall time and cache
  hit/miss counts, and registers itself in the
  :class:`~repro.runner.registry.RunRegistry` index.

Because each run is a pure function of its spec, results are identical
for any pool size -- the determinism tests and the pool conformance
battery assert byte-identical output against the in-process path.

The runner owns dispatch order, dedup/coalescing, cache lookups, stall
detection, retry policy, and manifest/registry/status writing; the pool
owns the worker processes.  Worker deaths come back as crashed outcomes
for their own cell, never as exceptions that lose the batch.

Live telemetry (``telemetry=True``): every run reports lifecycle
records to the parent -- a pool worker over its pipe, an in-process run
directly -- and the parent alone writes them, with its own, to
``<runs_dir>/<batch_id>/telemetry.jsonl`` and folds them into an
atomically rewritten ``status.json`` (watch it with ``repro watch``).
With a ``stall_timeout_s`` (telemetry only) the runner watches
heartbeats: a running worker silent for that long is marked *stalled*,
its worker alone is killed, and the cell is resubmitted once -- a hung
cell can fail, but it can never hang the batch.  A worker process that
dies abruptly (OOM kill, segfault) fails only its own cell, after one
retry: the manifest records it as failed and the batch returns its
partial results instead of losing everything.  ``KeyboardInterrupt``
writes a partial manifest marked ``interrupted`` before propagating.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import re
import sys
import time
import typing

from repro import artifact
from repro.runner.cache import ResultCache
from repro.runner.registry import RunRegistry, spec_digest
from repro.runner.spec import RunSpec
from repro.runner.worker import (
    execute_spec,
    series_artifact_path,
    trace_artifact_path,
)
from repro.sim.metrics import SimulationResult

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.telemetry import Record, WorkerTelemetry
    from repro.runner.pool import WorkerPool

#: the accepted ``backend`` names: ``local`` runs a batch with more than
#: one worker on the worker pool, ``serial`` always runs in-process
BACKENDS = ("local", "serial")


class WorkerTaskError(RuntimeError):
    """A deterministic exception raised by a run in a worker process,
    re-raised in the parent with the worker's ``type: message`` string
    and its traceback."""

    def __init__(
        self, message: str, traceback: typing.Optional[str] = None
    ) -> None:
        super().__init__(message)
        self.traceback = traceback


@dataclasses.dataclass(frozen=True)
class RunEvent:
    """One progress notification streamed while a batch executes.

    ``kind`` is ``batch-start``, ``run-done`` or ``batch-done``; ``done``
    counts completed runs (cached ones included), ``cached`` flags a
    cache hit for ``run-done`` events.
    """

    kind: str
    label: str
    done: int
    total: int
    spec: typing.Optional[RunSpec] = None
    cached: bool = False
    elapsed_s: float = 0.0


def print_progress(
    event: RunEvent, stream: typing.Optional[typing.TextIO] = None
) -> None:
    """Default progress listener: one console line per event (to
    ``sys.stderr`` as it is at call time, unless ``stream`` is given)."""
    stream = sys.stderr if stream is None else stream
    if event.kind == "batch-start":
        print(
            f"[runner] {event.label}: {event.total} run(s), "
            f"{event.done} cached",
            file=stream,
            flush=True,
        )
    elif event.kind == "run-done":
        origin = "cache" if event.cached else f"{event.elapsed_s:.1f}s"
        desc = event.spec.describe() if event.spec is not None else "?"
        print(
            f"[runner] {event.label}: {event.done}/{event.total} "
            f"{desc} ({origin})",
            file=stream,
            flush=True,
        )
    elif event.kind == "batch-done":
        print(
            f"[runner] {event.label}: done in {event.elapsed_s:.1f}s",
            file=stream,
            flush=True,
        )


def validate_manifest(payload: typing.Any) -> None:
    """Raise ``ValueError`` unless ``payload`` is a batch manifest."""
    artifact.require(
        payload, ("label", "batch_id", "status", "counts", "runs"), "manifest"
    )
    if not isinstance(payload["runs"], list):
        raise ValueError("manifest runs must be a list")


#: the per-batch manifest :meth:`ParallelRunner.run_batch` writes
MANIFEST = artifact.Family("manifest", 1, validate_manifest)


def _slug(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", label).strip("-") or "batch"


class _BatchTelemetry:
    """Parent-side telemetry of one batch: stream + status + stall watch.

    The only writer of ``<dir>/telemetry.jsonl``: :meth:`record` appends
    each record -- the parent's own and every run's -- to the stream,
    folds it into the :class:`BatchStatus` and rewrites ``status.json``
    when due (throttled).  :meth:`tick` flags heartbeat-overdue cells.
    Everything the snapshot says derives from the records written to
    the stream, so the stream is the single source of truth.
    """

    #: at most one status.json rewrite per this many seconds
    STATUS_INTERVAL_S = 0.5
    #: how long the runner waits on the pool between telemetry ticks
    POLL_S = 0.2

    def __init__(
        self,
        runs_dir: pathlib.Path,
        batch_id: str,
        label: str,
        specs: typing.Sequence[RunSpec],
        keys: typing.Sequence[str],
        heartbeat_s: float,
        progress_every: int,
        stall_timeout_s: typing.Optional[float],
        backend: str = "local",
    ) -> None:
        from repro.obs.telemetry import TELEMETRY, BatchStatus

        self.dir = pathlib.Path(runs_dir) / batch_id
        self.dir.mkdir(parents=True, exist_ok=True)
        self.path = self.dir / "telemetry.jsonl"
        self.status_path = self.dir / "status.json"
        self.heartbeat_s = heartbeat_s
        self.progress_every = progress_every
        self.stall_timeout_s = stall_timeout_s
        self._specs = list(specs)
        self._keys = list(keys)
        self.status = BatchStatus(
            batch_id,
            label,
            [
                {
                    "cell": index,
                    "key": keys[index][:16],
                    "label": specs[index].describe(),
                    "until_ms": specs[index].duration_ms,
                }
                for index in range(len(specs))
            ],
        )
        self._last_write = float("-inf")
        self._stream = self.path.open("w", encoding="utf-8")
        self.emit(TELEMETRY.header, **artifact.envelope(TELEMETRY, {
            "batch": batch_id,
            "label": label,
            "total": len(specs),
            "mode": "sweep",
            "backend": backend,
        }))

    def worker_context(
        self,
        index: int,
        send: typing.Optional[typing.Callable[["Record"], None]] = None,
    ) -> "WorkerTelemetry":
        """One run's lifecycle reporter; a pool job's gets its ``send``
        in the worker."""
        from repro.obs.telemetry import WorkerTelemetry

        spec = self._specs[index]
        return WorkerTelemetry(
            index,
            until_ms=spec.duration_ms,
            key=self._keys[index][:16],
            label=spec.describe(),
            heartbeat_s=self.heartbeat_s,
            progress_every=self.progress_every,
            send=send,
        )

    # -- the stream ---------------------------------------------------------

    def record(self, record: "Record") -> None:
        """Write one record to the stream, fold it into the status and
        rewrite ``status.json`` when due."""
        self._stream.write(json.dumps(record, sort_keys=True) + "\n")
        self._stream.flush()
        self.status.consume(record)
        self._write_status()

    def emit(self, kind: str, **fields: typing.Any) -> None:
        """Record one of the parent's own records, stamped now."""
        from repro.obs.telemetry import telemetry_record

        self.record(telemetry_record(kind, **fields))

    def _write_status(self, force: bool = False) -> None:
        from repro.obs.telemetry import STATUS

        now = time.monotonic()
        if force or now - self._last_write >= self.STATUS_INTERVAL_S:
            artifact.write(self.status_path, STATUS, self.status.snapshot())
            self._last_write = now

    # -- the heartbeat of the parent loop -----------------------------------

    def tick(self) -> typing.List[int]:
        """Flag heartbeat-overdue cells; returns those that *just* went
        stalled."""
        newly: typing.List[int] = []
        if self.stall_timeout_s is not None:
            for cell in self.status.stalled_candidates(self.stall_timeout_s):
                last = self.status.cells[cell]["last_activity_ts"]
                idle = time.time() - last if last else 0.0
                self.emit("run.stalled", cell=cell, idle_s=round(idle, 3))
                newly.append(cell)
        self._write_status(force=bool(newly))
        return newly

    def finish(self, status: str, wall_s: float) -> None:
        self.emit("batch.done", status=status, wall_s=round(wall_s, 3))
        self._write_status(force=True)
        self._stream.close()


class ParallelRunner:
    """Executes spec batches across worker processes, cache-first."""

    def __init__(
        self,
        pool_size: typing.Optional[int] = None,
        cache: typing.Optional[ResultCache] = None,
        runs_dir: typing.Optional[typing.Union[str, pathlib.Path]] = None,
        progress: typing.Optional[
            typing.Callable[[RunEvent], None]
        ] = print_progress,
        traces_dir: typing.Optional[typing.Union[str, pathlib.Path]] = None,
        series_dir: typing.Optional[typing.Union[str, pathlib.Path]] = None,
        telemetry: bool = False,
        stall_timeout_s: typing.Optional[float] = None,
        heartbeat_s: float = 0.5,
        progress_every: int = 4096,
        backend: str = "local",
    ) -> None:
        if pool_size is not None and pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        if telemetry and runs_dir is None:
            raise ValueError(
                "telemetry needs a runs_dir to write the batch artifacts"
            )
        if stall_timeout_s is not None and not telemetry:
            raise ValueError(
                "stall_timeout_s needs telemetry (stalls are detected "
                "from the telemetry heartbeats)"
            )
        if stall_timeout_s is not None and stall_timeout_s <= 0:
            raise ValueError(
                f"stall_timeout_s must be > 0, got {stall_timeout_s}"
            )
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.backend_name = backend
        self.pool_size = pool_size or os.cpu_count() or 1
        self.cache = cache
        self.runs_dir = pathlib.Path(runs_dir) if runs_dir is not None else None
        self.traces_dir = (
            pathlib.Path(traces_dir) if traces_dir is not None else None
        )
        self.series_dir = (
            pathlib.Path(series_dir) if series_dir is not None else None
        )
        self.progress = progress
        #: live telemetry + registry configuration
        self.telemetry = telemetry
        self.stall_timeout_s = stall_timeout_s
        self.heartbeat_s = heartbeat_s
        self.progress_every = progress_every
        self.registry = (
            RunRegistry(self.runs_dir) if self.runs_dir is not None else None
        )
        #: cumulative counters across all batches of this runner
        self.cache_hits = 0
        self.cache_misses = 0
        self.runs_completed = 0
        #: manifest payload and path of the most recent batch
        self.last_batch: typing.Optional[typing.Dict[str, typing.Any]] = None
        self.last_manifest_path: typing.Optional[pathlib.Path] = None
        #: batch id and per-cell failures of the most recent batch
        self.last_batch_id: typing.Optional[str] = None
        self.last_failures: typing.Dict[int, str] = {}
        self._git_sha = artifact.git_sha()
        self._session = f"{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}"
        self._batch_seq = 0

    # -- public API ---------------------------------------------------------

    def run_batch(
        self, specs: typing.Sequence[RunSpec], label: str = "batch"
    ) -> typing.List[SimulationResult]:
        """Execute ``specs``, returning results in input order.

        A cell whose worker *process died* (and, with retry exhausted,
        a stalled cell) yields ``None`` at its position instead of
        aborting the batch -- ``last_failures`` and the manifest record
        why, and the batch status becomes ``partial``.  An ordinary
        exception raised by a run still fails the batch fast (it is
        deterministic; retrying cannot help), after writing a manifest
        marked ``failed``.
        """
        specs = list(specs)
        started = time.time()
        batch_id = self._next_batch_id()
        self.last_failures = {}
        results: typing.List[typing.Optional[SimulationResult]] = (
            [None] * len(specs)
        )
        cached_flags = [False] * len(specs)

        # coalesce duplicates: one simulation per distinct cache key
        by_key: typing.Dict[str, typing.List[int]] = {}
        keys = [spec.cache_key() for spec in specs]
        for index, key in enumerate(keys):
            by_key.setdefault(key, []).append(index)

        pending: typing.List[int] = []  # first index of each key to compute
        for key, indices in by_key.items():
            spec = specs[indices[0]]
            hit = self.cache.get(spec) if self.cache else None
            if hit is not None and self._artifacts_present(spec):
                for index in indices:
                    results[index] = hit
                    cached_flags[index] = True
            else:
                pending.append(indices[0])
        hits = sum(cached_flags)
        self.cache_hits += hits
        self.cache_misses += len(specs) - hits

        tele = self._open_telemetry(batch_id, label, specs, keys)
        if tele is not None:
            for index, flag in enumerate(cached_flags):
                if flag:
                    tele.emit("run.cached", cell=index)
        self._register(batch_id, label, keys, "running", tele=tele)

        done = hits
        status = "complete"
        try:
            self._emit(RunEvent("batch-start", label, done, len(specs)))
            for index, result, elapsed_s in self._execute(
                specs, pending, tele
            ):
                if self.cache is not None:
                    self.cache.put(specs[index], result)
                for twin in by_key[keys[index]]:
                    results[twin] = result
                if tele is not None:
                    for twin in by_key[keys[index]][1:]:
                        tele.emit("run.coalesced", cell=twin)
                done += len(by_key[keys[index]])
                self._emit(
                    RunEvent(
                        "run-done",
                        label,
                        done,
                        len(specs),
                        spec=specs[index],
                        elapsed_s=elapsed_s,
                    )
                )
            if self.last_failures:
                status = "partial"
        except KeyboardInterrupt:
            status = "interrupted"
            raise
        except BaseException:
            status = "failed"
            raise
        finally:
            wall_s = time.time() - started
            self.runs_completed += len(specs)
            self._write_manifest(
                label, specs, keys, cached_flags, wall_s,
                batch_id=batch_id, status=status, results=results, tele=tele,
            )
            if tele is not None:
                tele.finish(status, wall_s)
            self._register(
                batch_id, label, keys, status,
                wall_s=wall_s, tele=tele,
            )
            self._emit(
                RunEvent(
                    "batch-done", label, done, len(specs), elapsed_s=wall_s
                )
            )
        return typing.cast(typing.List[SimulationResult], results)

    # -- execution ----------------------------------------------------------

    def _execute(
        self,
        specs: typing.Sequence[RunSpec],
        pending: typing.Sequence[int],
        tele: typing.Optional[_BatchTelemetry],
    ) -> typing.Iterator[typing.Tuple[int, SimulationResult, float]]:
        """Yield ``(index, result, elapsed_s)`` for every pending index.

        Indices that fail (worker death, exhausted stall retry) are
        recorded in ``last_failures`` instead of being yielded.
        """
        if not pending:
            return
        traces_dir: typing.Optional[str] = None
        if self.traces_dir is not None and any(
            specs[index].trace for index in pending
        ):
            self.traces_dir.mkdir(parents=True, exist_ok=True)
            traces_dir = str(self.traces_dir)
        series_dir: typing.Optional[str] = None
        if self.series_dir is not None and any(
            specs[index].timeseries for index in pending
        ):
            self.series_dir.mkdir(parents=True, exist_ok=True)
            series_dir = str(self.series_dir)
        workers = min(self.pool_size, len(pending))
        if self.backend_name == "serial" or workers <= 1:
            yield from self._execute_inline(
                specs, pending, traces_dir, series_dir, tele
            )
        else:
            from repro.runner.pool import WorkerPool

            pool = WorkerPool(
                workers, on_record=tele.record if tele is not None else None
            )
            try:
                yield from self._execute_pool(
                    specs, pending, traces_dir, series_dir, tele, pool
                )
            finally:
                pool.shutdown()

    def _execute_inline(
        self,
        specs: typing.Sequence[RunSpec],
        pending: typing.Sequence[int],
        traces_dir: typing.Optional[str],
        series_dir: typing.Optional[str],
        tele: typing.Optional[_BatchTelemetry],
    ) -> typing.Iterator[typing.Tuple[int, SimulationResult, float]]:
        """Serial path: run in-process, each record straight to the
        stream (stalls cannot self-detect here)."""
        for index in pending:
            run_started = time.time()
            context = (
                tele.worker_context(index, send=tele.record)
                if tele is not None else None
            )
            try:
                result = execute_spec(
                    specs[index], traces_dir=traces_dir,
                    series_dir=series_dir, telemetry=context,
                )
            except Exception as exc:
                self._record_failure(
                    index, f"{type(exc).__name__}: {exc}", tele, emit=False
                )
                raise
            yield index, result, time.time() - run_started

    def _execute_pool(
        self,
        specs: typing.Sequence[RunSpec],
        pending: typing.Sequence[int],
        traces_dir: typing.Optional[str],
        series_dir: typing.Optional[str],
        tele: typing.Optional[_BatchTelemetry],
        pool: "WorkerPool",
    ) -> typing.Iterator[typing.Tuple[int, SimulationResult, float]]:
        """Fan out over the worker pool: submit every cell, then poll.

        The loop never blocks indefinitely: with telemetry the pool
        passes each worker record to the stream as it arrives, the loop
        ticks at least every ``POLL_S``, and kills the worker of each
        cell that went stalled.  A crashed cell (killed or dead worker)
        goes straight back into the pool once (:meth:`_retry`).
        """

        def submit(index: int) -> None:
            pool.submit(index, {
                "spec": specs[index],
                "traces_dir": traces_dir,
                "series_dir": series_dir,
                "telemetry": (
                    tele.worker_context(index) if tele is not None else None
                ),
            })

        retried: typing.Set[int] = set()
        killed: typing.Set[int] = set()
        batch_started = time.time()
        for index in pending:
            submit(index)
        while pool.active:
            for outcome in pool.poll(
                _BatchTelemetry.POLL_S if tele is not None else None
            ):
                if outcome.crashed:
                    if self._retry(
                        outcome.cell, killed, retried, outcome.error, tele
                    ):
                        submit(outcome.cell)
                elif outcome.error is not None:
                    # a deterministic worker exception: record it (the
                    # worker already emitted run.error with traceback)
                    # and fail fast -- retrying cannot help
                    self._record_failure(
                        outcome.cell, outcome.error, tele, emit=False
                    )
                    raise WorkerTaskError(outcome.error, outcome.traceback)
                else:
                    yield (
                        outcome.cell,
                        outcome.result,
                        time.time() - batch_started,
                    )
            if tele is not None:
                killed.update(cell for cell in tele.tick() if pool.kill(cell))

    def _retry(
        self,
        cell: int,
        killed: typing.Set[int],
        retried: typing.Set[int],
        reason: typing.Optional[str],
        tele: typing.Optional[_BatchTelemetry],
    ) -> bool:
        """Whether a crashed cell gets a second attempt; records its
        failure otherwise.  A cell is retried once, whether its worker
        was killed for a stall or died (OOM kill, segfault)."""
        stalled = cell in killed
        killed.discard(cell)
        if cell in retried:
            if stalled:
                message = (
                    f"stalled: no heartbeat for {self.stall_timeout_s}s "
                    "(worker killed)"
                )
            else:
                message = f"worker died abruptly: {reason}"
            self._record_failure(cell, message, tele)
            return False
        retried.add(cell)
        if tele is not None:
            tele.emit("run.retry", cell=cell, attempt=2)
        return True

    def _record_failure(
        self,
        index: int,
        message: str,
        tele: typing.Optional[_BatchTelemetry],
        emit: bool = True,
    ) -> None:
        self.last_failures[index] = message
        if tele is not None and emit:
            tele.emit("run.error", cell=index, error=message)

    # -- bookkeeping --------------------------------------------------------

    def _next_batch_id(self) -> str:
        self._batch_seq += 1
        batch_id = f"{self._session}-b{self._batch_seq:03d}"
        self.last_batch_id = batch_id
        return batch_id

    def _open_telemetry(
        self,
        batch_id: str,
        label: str,
        specs: typing.Sequence[RunSpec],
        keys: typing.Sequence[str],
    ) -> typing.Optional[_BatchTelemetry]:
        if not self.telemetry or self.runs_dir is None:
            return None
        return _BatchTelemetry(
            self.runs_dir, batch_id, label, specs, keys,
            heartbeat_s=self.heartbeat_s,
            progress_every=self.progress_every,
            stall_timeout_s=self.stall_timeout_s,
            backend=self.backend_name,
        )

    def _register(
        self,
        batch_id: str,
        label: str,
        keys: typing.Sequence[str],
        status: str,
        wall_s: typing.Optional[float] = None,
        tele: typing.Optional[_BatchTelemetry] = None,
    ) -> None:
        if self.registry is None:
            return
        entry = {
            "batch": batch_id,
            "label": label,
            "kind": "sweep",
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "git_sha": self._git_sha,
            "status": status,
            "total": len(keys),
            "failed": len(self.last_failures),
            "digest": spec_digest(keys),
            "wall_s": round(wall_s, 3) if wall_s is not None else None,
            "manifest": (
                str(self.last_manifest_path)
                if self.last_manifest_path is not None and wall_s is not None
                else None
            ),
            "telemetry": str(tele.path) if tele is not None else None,
            "status_file": (
                str(tele.status_path) if tele is not None else None
            ),
        }
        try:
            self.registry.record(entry)
        except OSError:
            pass  # the registry is an index, never worth failing a batch

    # -- manifest -----------------------------------------------------------

    def _write_manifest(
        self,
        label: str,
        specs: typing.Sequence[RunSpec],
        keys: typing.Sequence[str],
        cached_flags: typing.Sequence[bool],
        wall_s: float,
        batch_id: str,
        status: str = "complete",
        results: typing.Optional[
            typing.Sequence[typing.Optional[SimulationResult]]
        ] = None,
        tele: typing.Optional[_BatchTelemetry] = None,
    ) -> None:
        hits = sum(cached_flags)
        simulated = len({k for k, c in zip(keys, cached_flags) if not c})
        failed_keys = {
            keys[index]: message
            for index, message in self.last_failures.items()
        }

        def run_status(index: int) -> str:
            if cached_flags[index]:
                return "cached"
            if keys[index] in failed_keys:
                return "failed"
            if results is not None and results[index] is not None:
                return "done"
            return "pending"

        payload = {
            "label": label,
            "session": self._session,
            "batch": self._batch_seq,
            "batch_id": batch_id,
            "status": status,
            "pool_size": self.pool_size,
            "backend": self.backend_name,
            "wall_s": round(wall_s, 3),
            "telemetry": str(tele.path) if tele is not None else None,
            "status_file": (
                str(tele.status_path) if tele is not None else None
            ),
            "counts": {
                "total": len(specs),
                "cache_hits": hits,
                "cache_misses": len(specs) - hits,
                "simulated": simulated,
                "coalesced": (len(specs) - hits) - simulated,
                "failed": sum(
                    1 for index in range(len(specs))
                    if run_status(index) == "failed"
                ),
            },
            "runs": [
                {
                    "key": key,
                    "cached": cached,
                    "status": run_status(index),
                    "error": failed_keys.get(key),
                    "spec": spec.to_dict(),
                    "trace_artifact": self._trace_artifact(spec),
                    "series_artifact": self._series_artifact(spec),
                }
                for index, (spec, key, cached) in enumerate(
                    zip(specs, keys, cached_flags)
                )
            ],
        }
        self.last_batch = payload
        self.last_manifest_path = None
        if self.runs_dir is None:
            return
        path = self.runs_dir / f"{batch_id}-{_slug(label)}.json"
        artifact.write(path, MANIFEST, payload)
        self.last_manifest_path = path

    def _artifacts_present(self, spec: RunSpec) -> bool:
        """Whether every artifact ``spec`` asks this runner for is on
        disk; a cached result without them is simulated again to write
        them (byte-identical by contract).  An unobserved spec costs no
        filesystem call."""
        if (
            spec.trace and self.traces_dir is not None
            and not trace_artifact_path(self.traces_dir, spec).exists()
        ):
            return False
        return not (
            spec.timeseries and self.series_dir is not None
            and not series_artifact_path(self.series_dir, spec).exists()
        )

    def _trace_artifact(self, spec: RunSpec) -> typing.Optional[str]:
        """Manifest entry for a run's trace file (None when untraced).

        Cached traced runs keep pointing at the artifact their original
        execution wrote -- it is content-addressed by the same cache key,
        and written atomically, so a file at that path is complete.
        """
        if not spec.trace or self.traces_dir is None:
            return None
        path = trace_artifact_path(self.traces_dir, spec)
        return str(path) if path.exists() else None

    def _series_artifact(self, spec: RunSpec) -> typing.Optional[str]:
        """Manifest entry for a run's series file (None when unsampled)."""
        if not spec.timeseries or self.series_dir is None:
            return None
        path = series_artifact_path(self.series_dir, spec)
        return str(path) if path.exists() else None

    def _emit(self, event: RunEvent) -> None:
        if self.progress is not None:
            self.progress(event)

