"""Live fleet telemetry for the parallel runner.

Traces and series are *post-hoc and per-run*: those artifacts only
exist once a run finished.  This module is the *live*
layer: while a batch executes, every run reports structured lifecycle
records (``run.start`` / ``run.heartbeat`` / ``run.done`` / ``run.error``)
through :class:`WorkerTelemetry`, and the batch's parent process writes
them, with its own records, to the per-batch ``telemetry.jsonl``.  The
parent is the stream's only writer: a pool worker sends its records
over the pipe it already shares with the parent, and an in-process run
hands them over directly.  The parent also folds the stream into an
atomically rewritten ``status.json`` snapshot -- per-cell % of the
simulated horizon reached, cells done/failed/pending, EWMA fleet
throughput and an ETA -- which ``repro watch`` renders and the runner's
stall detector watches (no heartbeat for ``stall_timeout`` means a
worker is hung, not slow).

``status.json`` is a STATUS artifact rewritten through
:func:`repro.artifact.write`, so a reader can never observe a torn
snapshot.  The stream is the TELEMETRY artifact family: its
``batch.meta`` header is the artifact envelope, and
:func:`repro.artifact.check_stream` checks a finished stream.

Same contract as tracing and sampling: telemetry only *observes*.  The
heartbeat hook reads the engine clock and event counter; a run with
telemetry on returns byte-identical results to the same run without.
"""

from __future__ import annotations

import os
import sys
import time
import traceback as traceback_mod
import typing

from repro import artifact

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

#: one telemetry record: ``ts``, ``kind`` and the kind's fields
Record = typing.Dict[str, typing.Any]

#: every kind a telemetry stream may carry, mapped to the field names
#: each record must have besides ``ts`` and ``kind`` (the TELEMETRY
#: stream check enforces this)
TELEMETRY_EVENT_KINDS: typing.Dict[str, typing.Tuple[str, ...]] = {
    # -- batch lifecycle (parent-emitted) ---------------------------------
    "batch.meta": artifact.ENVELOPE_FIELDS,
    "batch.done": ("status", "wall_s"),
    # -- cell lifecycle (worker-emitted unless noted) ---------------------
    "run.cached": ("cell",),                # parent: served from cache
    "run.coalesced": ("cell",),             # parent: duplicate of a cell
    "run.start": ("cell", "pid", "key", "until_ms"),
    "run.heartbeat": (
        "cell", "pid", "sim_ms", "until_ms", "events", "progress",
    ),
    "run.done": ("cell", "pid", "wall_s"),
    "run.error": ("cell", "error"),         # worker traceback or parent
    "run.stalled": ("cell", "idle_s"),      # parent: heartbeat overdue
    "run.retry": ("cell", "attempt"),       # parent: resubmitted once
}

#: cell states a snapshot reports; terminal ones stop stall-watching
CELL_STATES = (
    "pending", "running", "stalled", "done", "cached", "failed",
)
_TERMINAL_STATES = frozenset(("done", "cached", "failed"))

#: smoothing factor of the fleet-throughput EWMA (per heartbeat)
EWMA_ALPHA = 0.25


def telemetry_event_kinds() -> typing.Tuple[str, ...]:
    """All known telemetry kinds, sorted (documentation helper)."""
    return tuple(sorted(TELEMETRY_EVENT_KINDS))


def max_rss_kb() -> typing.Optional[int]:
    """This process's peak resident set size in KiB (None when the
    platform has no ``getrusage``).

    ``ru_maxrss`` is KiB on Linux but bytes on macOS; normalised here so
    every worker in a mixed fleet reports the same unit.
    """
    if _resource is None:
        return None
    rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        rss //= 1024
    return int(rss)


def _check_batch_meta(payload: typing.Any) -> None:
    artifact.require(payload, ("batch", "label", "total"), "batch.meta")


def validate_status(payload: typing.Any) -> None:
    """Raise ``ValueError`` unless ``payload`` is a status snapshot."""
    artifact.require(
        payload, ("batch", "status", "total", "counts", "cells"), "status"
    )
    if not isinstance(payload["cells"], list):
        raise ValueError("status cells must be a list")


#: one batch's lifecycle stream, on wall-clock ``ts`` stamps that
#: concurrent workers interleave (so, unlike a trace, not monotone)
TELEMETRY = artifact.Family(
    "telemetry", 1, _check_batch_meta,
    header="batch.meta", clock="ts", kinds=TELEMETRY_EVENT_KINDS,
)

#: the ``status.json`` snapshot :class:`BatchStatus` folds the stream into
STATUS = artifact.Family("status", 1, validate_status)


def telemetry_record(kind: str, **fields: typing.Any) -> Record:
    """One telemetry record stamped with the current wall clock."""
    record: Record = {"ts": round(time.time(), 6), "kind": kind}
    record.update(fields)
    return record


# -- worker-side lifecycle emitter --------------------------------------------


class WorkerTelemetry:
    """Reports one cell's lifecycle from wherever the run executes.

    Every record goes to ``send``: the parent's stream writer for an
    in-process run, the worker's pipe to the parent in a pool (which
    :func:`repro.runner.pool.serve` sets, since a context is pickled
    into the job without one).  Heartbeats ride the engine's progress
    hook: the hook fires every ``progress_every`` DES events and a
    heartbeat is sent whenever at least ``heartbeat_s`` wall seconds
    elapsed since the previous one, carrying the simulated clock, the
    cumulative event count and the fraction of the run horizon reached.
    """

    def __init__(
        self,
        cell: int,
        until_ms: float,
        key: str = "",
        label: str = "",
        heartbeat_s: float = 0.5,
        progress_every: int = 4096,
        send: typing.Optional[typing.Callable[[Record], None]] = None,
    ) -> None:
        self.cell = cell
        self.until_ms = float(until_ms)
        self.key = key
        self.label = label
        self.heartbeat_s = heartbeat_s
        self.progress_every = progress_every
        self.send = send
        self._last_beat = 0.0

    def _emit(self, kind: str, **fields: typing.Any) -> None:
        self.send(telemetry_record(
            kind, cell=self.cell, pid=os.getpid(), **fields
        ))

    def start(self) -> None:
        """Send ``run.start``; call before any simulation work."""
        self._last_beat = time.monotonic()
        self._emit(
            "run.start", key=self.key, label=self.label,
            until_ms=self.until_ms,
        )

    def install(self, env: typing.Any) -> None:
        """Attach the heartbeat to an engine's progress hook."""
        env.progress_every = self.progress_every
        env.progress_hook = self._on_progress

    def _on_progress(self, now_ms: float, events: int) -> None:
        wall = time.monotonic()
        if wall - self._last_beat < self.heartbeat_s:
            return
        self._last_beat = wall
        progress = (
            min(1.0, now_ms / self.until_ms) if self.until_ms > 0 else 0.0
        )
        extra: typing.Dict[str, typing.Any] = {}
        rss = max_rss_kb()
        if rss is not None:
            extra["maxrss_kb"] = rss
        self._emit(
            "run.heartbeat", sim_ms=now_ms, until_ms=self.until_ms,
            events=events, progress=round(progress, 6), **extra,
        )

    def done(self, wall_s: float, events: int) -> None:
        """Send ``run.done`` (the cell's last record)."""
        extra: typing.Dict[str, typing.Any] = {}
        rss = max_rss_kb()
        if rss is not None:
            extra["maxrss_kb"] = rss
        self._emit(
            "run.done", wall_s=round(wall_s, 6), events=events, **extra,
        )

    def error(self, exc: BaseException) -> None:
        """Send ``run.error`` (the cell's last record)."""
        self._emit(
            "run.error",
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback_mod.format_exc(),
        )


# -- parent-side aggregation --------------------------------------------------


class BatchStatus:
    """Folds a telemetry stream into the live ``status.json`` snapshot.

    The parent feeds every record it writes to the stream (its own and
    the workers') through :meth:`consume`; :meth:`snapshot` is the JSON-ready view and
    :meth:`stalled_candidates` is what the runner's stall detector
    polls.  All state derives from the stream, so a crashed parent can
    rebuild the snapshot by replaying ``telemetry.jsonl``.
    """

    def __init__(
        self,
        batch: str,
        label: str,
        cells: typing.Sequence[typing.Mapping[str, typing.Any]],
        kind: str = "sweep",
    ) -> None:
        self.batch = batch
        self.label = label
        self.kind = kind
        self.created_ts = time.time()
        #: terminal batch status once ``batch.done`` was consumed
        self.finished: typing.Optional[str] = None
        self.wall_s: typing.Optional[float] = None
        self.ewma_events_per_s: typing.Optional[float] = None
        self.cells: typing.List[typing.Dict[str, typing.Any]] = [
            {
                "cell": int(info["cell"]),
                "key": info.get("key", ""),
                "label": info.get("label", ""),
                "state": "pending",
                "progress": 0.0,
                "sim_ms": 0.0,
                "until_ms": float(info.get("until_ms", 0.0)),
                "events": 0,
                "pid": None,
                "attempt": 0,
                "stalled": False,
                "error": None,
                "wall_s": None,
                "last_activity_ts": None,
            }
            for info in cells
        ]
        #: cell -> (ts, events, sim_ms) of the previous heartbeat
        self._last_beat: typing.Dict[
            int, typing.Tuple[float, int, float]
        ] = {}
        #: cell -> (events_per_s, sim_ms_per_s) instantaneous rates
        self._rates: typing.Dict[int, typing.Tuple[float, float]] = {}

    def _cell(
        self, record: typing.Mapping[str, typing.Any]
    ) -> typing.Optional[typing.Dict[str, typing.Any]]:
        index = record.get("cell")
        if isinstance(index, int) and 0 <= index < len(self.cells):
            return self.cells[index]
        return None

    def consume(self, record: typing.Mapping[str, typing.Any]) -> None:
        """Fold one telemetry record into the status."""
        kind = record.get("kind")
        if kind == "batch.done":
            self.finished = record.get("status", "complete")
            self.wall_s = record.get("wall_s")
            return
        if kind == "batch.meta":
            return
        cell = self._cell(record)
        if cell is None:
            return
        index = cell["cell"]
        stamp = float(record.get("ts", time.time()))
        if kind == "run.cached":
            cell["state"] = "cached"
            cell["progress"] = 1.0
        elif kind == "run.coalesced":
            # a duplicate spec filled from another cell's fresh result
            cell["state"] = "done"
            cell["progress"] = 1.0
        elif kind == "run.start":
            cell["state"] = "running"
            cell["pid"] = record.get("pid")
            cell["attempt"] += 1
            cell["stalled"] = False
            cell["last_activity_ts"] = stamp
            self._last_beat[index] = (stamp, 0, 0.0)
            self._rates.pop(index, None)
        elif kind == "run.heartbeat":
            cell["sim_ms"] = record.get("sim_ms", cell["sim_ms"])
            cell["events"] = record.get("events", cell["events"])
            cell["progress"] = record.get("progress", cell["progress"])
            cell["last_activity_ts"] = stamp
            if cell["state"] == "stalled":  # it was merely slow
                cell["state"] = "running"
                cell["stalled"] = False
            previous = self._last_beat.get(index)
            if previous is not None:
                dt = stamp - previous[0]
                if dt > 0:
                    self._rates[index] = (
                        (cell["events"] - previous[1]) / dt,
                        (cell["sim_ms"] - previous[2]) / dt,
                    )
                    aggregate = sum(r[0] for r in self._rates.values())
                    if self.ewma_events_per_s is None:
                        self.ewma_events_per_s = aggregate
                    else:
                        self.ewma_events_per_s = (
                            EWMA_ALPHA * aggregate
                            + (1.0 - EWMA_ALPHA) * self.ewma_events_per_s
                        )
            self._last_beat[index] = (
                stamp, int(cell["events"]), float(cell["sim_ms"]),
            )
        elif kind == "run.done":
            cell["state"] = "done"
            cell["progress"] = 1.0
            cell["wall_s"] = record.get("wall_s")
            if "events" in record:
                cell["events"] = record["events"]
            self._rates.pop(index, None)
        elif kind == "run.error":
            cell["state"] = "failed"
            cell["error"] = record.get("error")
            self._rates.pop(index, None)
        elif kind == "run.stalled":
            cell["state"] = "stalled"
            cell["stalled"] = True
            self._rates.pop(index, None)
        elif kind == "run.retry":
            cell["state"] = "pending"
            cell["pid"] = None

    def stalled_candidates(
        self, stall_timeout_s: float, now: typing.Optional[float] = None
    ) -> typing.List[int]:
        """Running cells whose last sign of life is overdue."""
        now = time.time() if now is None else now
        overdue = []
        for cell in self.cells:
            if cell["state"] != "running":
                continue
            last = cell["last_activity_ts"]
            if last is not None and now - last > stall_timeout_s:
                overdue.append(cell["cell"])
        return overdue

    def snapshot(self) -> typing.Dict[str, typing.Any]:
        """The JSON-ready view ``status.json`` and ``repro watch`` use."""
        counts = {state: 0 for state in CELL_STATES}
        for cell in self.cells:
            counts[cell["state"]] += 1
        total = len(self.cells)
        progress = (
            sum(c["progress"] for c in self.cells) / total if total else 1.0
        )
        remaining_ms = sum(
            (1.0 - c["progress"]) * c["until_ms"]
            for c in self.cells
            if c["state"] not in _TERMINAL_STATES
        )
        sim_rate = sum(rate[1] for rate in self._rates.values())
        eta_s = (
            round(remaining_ms / sim_rate, 1) if sim_rate > 0 else None
        )
        return {
            "batch": self.batch,
            "label": self.label,
            "kind": self.kind,
            "created_ts": round(self.created_ts, 3),
            "updated_ts": round(time.time(), 3),
            "status": self.finished or "running",
            "wall_s": self.wall_s,
            "total": total,
            "counts": counts,
            "progress": round(progress, 6),
            "ewma_events_per_s": (
                round(self.ewma_events_per_s, 1)
                if self.ewma_events_per_s is not None
                else None
            ),
            "eta_s": eta_s,
            "workers": [
                {"pid": c["pid"], "cell": c["cell"]}
                for c in self.cells
                if c["state"] in ("running", "stalled")
                and c["pid"] is not None
            ],
            "cells": [dict(c) for c in self.cells],
        }


# -- terminal rendering -------------------------------------------------------


def _bar(progress: float, width: int) -> str:
    filled = int(round(max(0.0, min(1.0, progress)) * width))
    return "#" * filled + "-" * (width - filled)


def _human_rate(events_per_s: typing.Optional[float]) -> str:
    if events_per_s is None:
        return "-"
    if events_per_s >= 1e6:
        return f"{events_per_s / 1e6:.1f}M ev/s"
    if events_per_s >= 1e3:
        return f"{events_per_s / 1e3:.1f}k ev/s"
    return f"{events_per_s:.0f} ev/s"


def render_status(
    status: typing.Mapping[str, typing.Any], width: int = 28
) -> str:
    """The ``repro watch`` frame: one progress bar per cell."""
    counts = status.get("counts", {})
    finished = (
        counts.get("done", 0) + counts.get("cached", 0)
    )
    header = (
        f"batch {status.get('batch', '?')} ({status.get('label', '?')})  "
        f"[{status.get('status', '?')}]  "
        f"{finished}/{status.get('total', 0)} finished"
    )
    for state in ("failed", "stalled", "running", "pending"):
        if counts.get(state):
            header += f", {counts[state]} {state}"
    eta = status.get("eta_s")
    line2 = (
        f"  all [{_bar(status.get('progress', 0.0), width)}] "
        f"{status.get('progress', 0.0) * 100:5.1f}%  "
        f"{_human_rate(status.get('ewma_events_per_s'))}"
        + (f"  ETA {eta:.0f}s" if eta is not None else "")
    )
    lines = [header, line2, ""]
    now = time.time()
    for cell in status.get("cells", []):
        state = cell.get("state", "?")
        suffix = state
        if state == "running" and cell.get("pid"):
            suffix += f" pid={cell['pid']}"
        if state in ("running", "stalled") and cell.get("stalled"):
            last = cell.get("last_activity_ts")
            idle = f" {now - last:.0f}s" if last else ""
            suffix += f"  STALLED{idle}"
        if state == "done" and cell.get("wall_s") is not None:
            suffix += f" ({cell['wall_s']:.1f}s)"
        if state == "failed" and cell.get("error"):
            suffix += f": {str(cell['error'])[:60]}"
        if cell.get("attempt", 0) > 1:
            suffix += f"  attempt {cell['attempt']}"
        lines.append(
            f"  {cell.get('cell', '?'):>3} "
            f"[{_bar(cell.get('progress', 0.0), width)}] "
            f"{cell.get('progress', 0.0) * 100:5.1f}%  "
            f"{cell.get('label', '')}  {suffix}"
        )
    return "\n".join(lines)
