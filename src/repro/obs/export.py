"""Trace exporters: JSONL, Chrome trace (Perfetto) and text summary.

All three consume the same ordered :class:`~repro.obs.events.TraceEvent`
stream a :class:`~repro.obs.recorder.MemoryRecorder` buffered, or that
:func:`read_trace` reads back from a JSONL artifact:

- :func:`write_jsonl` -- one JSON object per line, headed by a
  ``trace.meta`` envelope; the TRACE artifact family
  (:func:`repro.artifact.check_stream` checks it) and the runner's
  per-run artifacts.
- :func:`to_chrome_trace` / :func:`write_chrome_trace` -- the Chrome
  trace-event JSON that Perfetto (ui.perfetto.dev) and chrome://tracing
  load: one track per machine node (CN CPU slices by cost category, DPN
  busy intervals, queue-depth counters) and one track per transaction
  (active span, lock-wait spans, per-step scan spans, instant markers
  for blocks/delays/restarts).
- :func:`render_summary` -- a terminal digest: event counts, top
  blockers, lock-wait histogram, restart chains.
"""

from __future__ import annotations

import json
import pathlib
import typing

from repro import artifact
from repro.obs.events import TRACE, TraceEvent

PathLike = typing.Union[str, pathlib.Path]

#: Chrome trace timestamps are microseconds; the simulator clock is ms
_US_PER_MS = 1000.0


# -- JSONL --------------------------------------------------------------------


def write_jsonl(
    events: typing.Iterable[TraceEvent],
    path: PathLike,
    meta: typing.Optional[typing.Mapping[str, typing.Any]] = None,
    dropped: int = 0,
) -> pathlib.Path:
    """Write the stream as a TRACE JSONL artifact, returning the path.

    ``meta`` (scheduler, seed, workload...) is the payload of the
    leading ``trace.meta`` envelope.  Pass the recorder's ``dropped``
    count so a capped trace is self-describing: the meta payload then
    carries ``events_dropped`` and ``truncated``, and downstream
    readers know the stream is a prefix, not the run.  The file is
    written atomically: a failure part-way leaves no file at ``path``.
    """
    payload = dict(meta or {})
    if dropped:
        payload["events_dropped"] = dropped
        payload["truncated"] = True
    header = {"t": 0.0, "kind": TRACE.header}
    header.update(artifact.envelope(TRACE, payload))

    def lines() -> typing.Iterator[str]:
        yield json.dumps(header, sort_keys=True) + "\n"
        for event in events:
            yield json.dumps(event.to_record(), sort_keys=True) + "\n"

    return artifact.atomic_write(path, lines())


def read_jsonl(path: PathLike) -> typing.List[typing.Dict[str, typing.Any]]:
    """Load every record of a JSONL trace (meta record included)."""
    records = []
    with pathlib.Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def read_trace(
    path: PathLike,
) -> typing.Tuple[typing.Dict[str, typing.Any], typing.List[TraceEvent]]:
    """A TRACE artifact as its meta payload and its events: the inverse
    of :func:`write_jsonl`, after checking the header's envelope."""
    records = read_jsonl(path)
    artifact.check_envelope(records[0] if records else None, TRACE, str(path))
    return records[0]["payload"], [
        TraceEvent(record.pop("t"), record.pop("kind"), record)
        for record in records[1:]
    ]


# -- Chrome trace / Perfetto --------------------------------------------------

_MACHINE_PID = 1
_TXN_PID = 2
_CN_TID = 0

#: instant markers shown on transaction tracks
_TXN_INSTANTS = {
    "txn.arrive": "arrive",
    "txn.admit_reject": "admit rejected",
    "txn.block": "blocked",
    "txn.delay": "delayed",
    "txn.restart": "restart",
    "txn.abort": "abort",
}


def to_chrome_trace(
    events: typing.Sequence[TraceEvent],
    meta: typing.Optional[typing.Mapping[str, typing.Any]] = None,
    dropped: int = 0,
) -> typing.Dict[str, typing.Any]:
    """Build the Chrome trace-event JSON object for the stream.

    Machine process (pid 1): tid 0 is the CN CPU (one slice per
    ``cn.exec_start``/``end`` pair, named by cost category), tid 1+n is
    DPN n (busy intervals from ``node.busy``/``node.idle``), plus
    queue-depth counter tracks.  Transaction process (pid 2): tid is
    the transaction id, carrying its active/wait/scan spans.
    """
    trace: typing.List[typing.Dict[str, typing.Any]] = []
    end_time = events[-1].time if events else 0.0

    def span(
        name: str,
        cat: str,
        start_ms: float,
        end_ms: float,
        pid: int,
        tid: int,
        args: typing.Optional[typing.Dict[str, typing.Any]] = None,
    ) -> None:
        trace.append(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": start_ms * _US_PER_MS,
                "dur": max(0.0, end_ms - start_ms) * _US_PER_MS,
                "pid": pid,
                "tid": tid,
                "args": args or {},
            }
        )

    def instant(
        name: str,
        cat: str,
        time_ms: float,
        pid: int,
        tid: int,
        args: typing.Optional[typing.Dict[str, typing.Any]] = None,
    ) -> None:
        trace.append(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "s": "t",
                "ts": time_ms * _US_PER_MS,
                "pid": pid,
                "tid": tid,
                "args": args or {},
            }
        )

    def counter(name: str, time_ms: float, value: float) -> None:
        trace.append(
            {
                "name": name,
                "ph": "C",
                "ts": time_ms * _US_PER_MS,
                "pid": _MACHINE_PID,
                "tid": 0,
                "args": {"depth": value},
            }
        )

    # open-interval state while sweeping the stream once
    cn_open: typing.Optional[typing.Tuple[float, str, float]] = None
    node_busy_since: typing.Dict[int, float] = {}
    txn_active_since: typing.Dict[int, float] = {}
    txn_wait_since: typing.Dict[int, typing.Tuple[float, int, str]] = {}
    txn_step_since: typing.Dict[int, typing.Tuple[float, int, int]] = {}
    seen_txns: typing.Set[int] = set()
    seen_nodes: typing.Set[int] = set()

    for event in events:
        time, kind, fields = event
        if kind == "cn.exec_start":
            cn_open = (time, fields["category"], fields["cost_ms"])
        elif kind == "cn.exec_end" and cn_open is not None:
            start, category, cost_ms = cn_open
            span(category, "cn", start, time, _MACHINE_PID, _CN_TID,
                 {"cost_ms": cost_ms})
            cn_open = None
        elif kind == "node.busy":
            node_busy_since[fields["node"]] = time
            seen_nodes.add(fields["node"])
        elif kind == "node.idle":
            node = fields["node"]
            seen_nodes.add(node)
            start = node_busy_since.pop(node, None)
            if start is not None:
                span("scan", "dpn", start, time, _MACHINE_PID, 1 + node)
        elif kind == "node.queue":
            counter(f"dpn{fields['node']} queue", time, fields["depth"])
        elif kind == "res.queue":
            counter(f"{fields['name']} queue", time, fields["depth"])
        elif kind == "txn.admit":
            txn_active_since[fields["txn"]] = time
            seen_txns.add(fields["txn"])
        elif kind in ("txn.commit", "txn.abort"):
            txn = fields["txn"]
            seen_txns.add(txn)
            start = txn_active_since.pop(txn, None)
            if start is not None:
                span("active", "txn", start, time, _TXN_PID, txn,
                     dict(fields))
            if kind == "txn.abort":
                instant("abort", "txn", time, _TXN_PID, txn, dict(fields))
        elif kind == "txn.lock_wait":
            txn = fields["txn"]
            seen_txns.add(txn)
            txn_wait_since[txn] = (time, fields["file"], fields["mode"])
        elif kind == "txn.lock_acquired":
            txn = fields["txn"]
            waiting = txn_wait_since.pop(txn, None)
            if waiting is not None:
                start, file_id, mode = waiting
                span(f"wait F{file_id}", "lock", start, time, _TXN_PID, txn,
                     {"mode": mode, "wait_ms": fields["wait_ms"]})
        elif kind == "txn.step_start":
            txn = fields["txn"]
            seen_txns.add(txn)
            txn_step_since[txn] = (time, fields["file"], fields["step"])
        elif kind == "txn.step_end":
            txn = fields["txn"]
            open_step = txn_step_since.pop(txn, None)
            if open_step is not None:
                start, file_id, step = open_step
                span(f"scan F{file_id}", "step", start, time, _TXN_PID, txn,
                     {"step": step})
        elif kind in _TXN_INSTANTS:
            txn = fields["txn"]
            seen_txns.add(txn)
            instant(_TXN_INSTANTS[kind], kind.split(".", 1)[0], time,
                    _TXN_PID, txn, dict(fields))

    # close intervals still open when the run window ended
    if cn_open is not None:
        start, category, cost_ms = cn_open
        span(category, "cn", start, end_time, _MACHINE_PID, _CN_TID,
             {"cost_ms": cost_ms, "truncated": True})
    for node, start in sorted(node_busy_since.items()):
        span("scan", "dpn", start, end_time, _MACHINE_PID, 1 + node,
             {"truncated": True})
    for txn, start in sorted(txn_active_since.items()):
        span("active", "txn", start, end_time, _TXN_PID, txn,
             {"truncated": True})
    for txn, (start, file_id, mode) in sorted(txn_wait_since.items()):
        span(f"wait F{file_id}", "lock", start, end_time, _TXN_PID, txn,
             {"mode": mode, "truncated": True})
    for txn, (start, file_id, step) in sorted(txn_step_since.items()):
        span(f"scan F{file_id}", "step", start, end_time, _TXN_PID, txn,
             {"step": step, "truncated": True})

    # name the processes/threads so Perfetto's track labels read well
    def name_meta(name: str, which: str, pid: int,
                  tid: typing.Optional[int] = None) -> None:
        record: typing.Dict[str, typing.Any] = {
            "name": which,
            "ph": "M",
            "pid": pid,
            "args": {"name": name},
        }
        if tid is not None:
            record["tid"] = tid
        trace.append(record)

    name_meta("machine", "process_name", _MACHINE_PID)
    name_meta("CN cpu", "thread_name", _MACHINE_PID, _CN_TID)
    for node in sorted(seen_nodes):
        name_meta(f"DPN {node}", "thread_name", _MACHINE_PID, 1 + node)
    name_meta("transactions", "process_name", _TXN_PID)
    for txn in sorted(seen_txns):
        name_meta(f"T{txn}", "thread_name", _TXN_PID, txn)

    payload: typing.Dict[str, typing.Any] = {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
    }
    if meta or dropped:
        payload["otherData"] = dict(meta) if meta else {}
    if dropped:
        # flag truncation where Perfetto's info panel will show it, so a
        # capped trace is never mistaken for the complete run
        payload["otherData"]["events_dropped"] = dropped
        payload["otherData"]["truncated"] = True
    return payload


def write_chrome_trace(
    events: typing.Sequence[TraceEvent],
    path: PathLike,
    meta: typing.Optional[typing.Mapping[str, typing.Any]] = None,
    dropped: int = 0,
) -> pathlib.Path:
    """Serialise :func:`to_chrome_trace` to ``path`` (Perfetto-loadable)."""
    return artifact.atomic_write(
        path, json.dumps(to_chrome_trace(events, meta, dropped=dropped))
    )


# -- text summary -------------------------------------------------------------

#: lock-wait histogram bucket upper bounds in ms (last bucket is open)
_WAIT_BUCKETS_MS = (10.0, 100.0, 1_000.0, 10_000.0, 100_000.0)


def _wait_histogram(waits: typing.Sequence[float]) -> typing.List[str]:
    lines = []
    edges = (0.0,) + _WAIT_BUCKETS_MS
    for low, high in zip(edges, edges[1:]):
        n = sum(1 for w in waits if low <= w < high)
        lines.append(f"    [{low:>8g}, {high:>8g}) ms  {n:>6d}")
    n = sum(1 for w in waits if w >= edges[-1])
    lines.append(f"    [{edges[-1]:>8g},      inf) ms  {n:>6d}")
    return lines


def _restart_chains(
    restarts: typing.Sequence[typing.Tuple[int, int]],
) -> typing.List[typing.List[int]]:
    """Stitch (old, new) restart pairs into attempt chains."""
    successor = dict(restarts)
    restarted_into = set(successor.values())
    chains = []
    for head in sorted(set(successor) - restarted_into):
        chain = [head]
        while chain[-1] in successor:
            chain.append(successor[chain[-1]])
        chains.append(chain)
    return chains


def render_summary(
    events: typing.Sequence[TraceEvent], top: int = 5, dropped: int = 0
) -> str:
    """A terminal digest of the stream: what happened, and who blocked whom.

    ``dropped`` is the recorder's dropped-event count; when non-zero the
    digest leads with a warning, since every section below then reflects
    only the retained prefix of the run.
    """
    counts: typing.Dict[str, int] = {}
    blocker_counts: typing.Dict[int, int] = {}
    file_block_counts: typing.Dict[int, int] = {}
    waits: typing.List[float] = []
    restarts: typing.List[typing.Tuple[int, int]] = []
    births: typing.Dict[int, float] = {}
    commits = aborts = 0
    wasted_ms = 0.0
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
        if event.kind == "txn.block":
            file_block_counts[event.fields["file"]] = (
                file_block_counts.get(event.fields["file"], 0) + 1
            )
            for holder in event.fields["holders"]:
                blocker_counts[holder] = blocker_counts.get(holder, 0) + 1
        elif event.kind == "txn.lock_acquired":
            waits.append(event.fields["wait_ms"])
        elif event.kind == "txn.arrive":
            births[event.fields["txn"]] = event.time
        elif event.kind == "txn.restart":
            restarts.append((event.fields["txn"], event.fields["new_txn"]))
            births[event.fields["new_txn"]] = event.time
        elif event.kind == "txn.commit":
            commits += 1
        elif event.kind == "txn.abort":
            aborts += 1
            txn = event.fields["txn"]
            wasted_ms += event.time - births.get(txn, event.time)

    span_ms = events[-1].time - events[0].time if events else 0.0
    lines = [
        f"trace summary: {len(events)} events over {span_ms:g} ms "
        f"({commits} commits, {aborts} aborts)",
    ]
    if dropped:
        lines.append(
            f"  WARNING: {dropped} event(s) dropped at the recorder cap; "
            "everything below reflects the retained prefix only"
        )
    lines += [
        "",
        "  events by kind:",
    ]
    for kind in sorted(counts):
        lines.append(f"    {kind:<22} {counts[kind]:>8d}")

    lines += ["", f"  top blockers (transactions holding locks others waited on):"]
    ranked = sorted(blocker_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if ranked:
        for txn, n in ranked[:top]:
            lines.append(f"    T{txn:<10} blocked others {n} time(s)")
    else:
        lines.append("    (no blocking observed)")

    lines += ["", "  most contended files (block events per file):"]
    ranked_files = sorted(
        file_block_counts.items(), key=lambda kv: (-kv[1], kv[0])
    )
    if ranked_files:
        for file_id, n in ranked_files[:top]:
            lines.append(f"    F{file_id:<10} {n} block(s)")
    else:
        lines.append("    (no blocking observed)")

    lines += ["", f"  lock-wait histogram ({len(waits)} completed waits):"]
    lines += _wait_histogram(waits)

    chains = _restart_chains(restarts)
    lines += ["", f"  restart chains: {len(restarts)} restart(s) in "
              f"{len(chains)} chain(s)"]
    for chain in sorted(chains, key=len, reverse=True)[:top]:
        arrow = " -> ".join(f"T{t}" for t in chain)
        lines.append(f"    {len(chain) - 1} restart(s): {arrow}")
    lines.append(
        f"  restart-wasted work: {wasted_ms:g} ms of simulated "
        f"progress discarded across {aborts} aborted attempt(s)"
    )
    return "\n".join(lines)
