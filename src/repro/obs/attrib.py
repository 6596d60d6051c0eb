"""Causal time attribution: fold a trace stream into span timelines.

This is the post-hoc analytics layer behind ``repro explain``.  It
consumes the flat JSONL records (or :class:`~repro.obs.events.TraceEvent`
streams) the PR 2 recorder writes and answers *where the time went*:

- **Per-transaction timelines.**  Every logical transaction becomes a
  chain of attempts linked by ``txn.restart`` lineage; each attempt is
  tiled into contiguous spans -- ``admission`` (arrival/restart to
  ``txn.admit``), ``lock_wait`` (one span per traced wait, ``lock_wait``
  to ``lock_acquired``) and ``executing`` (everything in between,
  including policy CPU and the per-step scans kept as detail).
- **Conservation invariant.**  Spans tile the attempt exactly: each
  span starts where the previous one ended, the first starts at the
  (original) arrival and the last ends at commit.  For a committed
  chain the span durations therefore sum to the ``response_ms`` the
  scheduler reported in ``txn.commit`` -- folding *asserts* this and
  raises :class:`ConservationError` on any gap, overlap or mismatch.
- **Batch time budget.**  Transaction-seconds split into queued
  (admission waits), blocked (lock waits), executing, and wasted
  (every span of an attempt that aborted and restarted).
- **Blocking graph, critical path, hotspots, anomaly flags.**
  ``txn.block`` verdicts carry the holders at each re-evaluation, which
  yields a weighted wait-for graph, a backward walk from the last
  commit through its blockers (the makespan critical path), a per-file
  hotspot table (blocked time, convoy depth), and deterministic
  starvation/convoy flags.

Everything here is read-only over recorded streams: nothing imports the
simulator, so the traced-run byte-identity contract is untouched.
"""

from __future__ import annotations

import dataclasses
import math
import pathlib
import typing

from repro.artifact import check_envelope
from repro.obs.events import TRACE, TraceEvent
from repro.obs.export import read_jsonl

PathLike = typing.Union[str, pathlib.Path]
Record = typing.Mapping[str, typing.Any]

#: tolerance for the conservation assertion: spans tile the timeline by
#: construction, so the only slack allowed is float summation round-off
CONSERVATION_REL_TOL = 1e-9
CONSERVATION_ABS_TOL = 1e-6  # ms

#: starvation flag: committed transaction whose response is at least
#: this multiple of the batch median *and* mostly spent waiting
STARVATION_FACTOR = 5.0
STARVATION_WAIT_SHARE = 0.75

#: convoy flag: a file whose wait queue reached this depth and that
#: accounts for at least this share of all blocked time
CONVOY_MIN_DEPTH = 3
CONVOY_BLOCKED_SHARE = 0.25

#: span kinds, in budget-bucket order
SPAN_KINDS = ("admission", "lock_wait", "executing")


class ConservationError(ValueError):
    """Span folding failed to tile a transaction's response time."""


@dataclasses.dataclass
class Span:
    """One contiguous slice of an attempt's lifetime."""

    kind: str  # one of SPAN_KINDS
    start: float
    end: float
    file: typing.Optional[int] = None  # lock_wait spans only
    flavor: typing.Optional[str] = None  # lock_wait: "block" / "delay"

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        record: typing.Dict[str, typing.Any] = {
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
        }
        if self.file is not None:
            record["file"] = self.file
        if self.flavor is not None:
            record["flavor"] = self.flavor
        return record


@dataclasses.dataclass
class _Wait:
    """One traced lock wait (lock_wait .. lock_acquired/attempt end)."""

    file: int
    mode: str
    start: float
    end: typing.Optional[float] = None
    #: (verdict_time, holders-or-None) -- None marks a delay verdict
    verdicts: typing.List[
        typing.Tuple[float, typing.Optional[typing.Tuple[int, ...]]]
    ] = dataclasses.field(default_factory=list)

    @property
    def flavor(self) -> str:
        return (
            "block"
            if any(h is not None for _, h in self.verdicts)
            else "delay"
        )


@dataclasses.dataclass
class Attempt:
    """One admission-to-commit/abort/restart attempt of a transaction."""

    txn_id: int
    index: int  # 0 = original, 1+ = restarts
    start: float
    end: typing.Optional[float] = None
    admitted_at: typing.Optional[float] = None
    outcome: str = "in_flight"  # commit | abort | in_flight
    reason: typing.Optional[str] = None  # abort reason
    waits: typing.List[_Wait] = dataclasses.field(default_factory=list)
    steps: typing.List[typing.Tuple[int, int, float, float]] = (
        dataclasses.field(default_factory=list)
    )  # (file, step, start, end)
    spans: typing.List[Span] = dataclasses.field(default_factory=list)

    def open_wait(self) -> typing.Optional[_Wait]:
        if self.waits and self.waits[-1].end is None:
            return self.waits[-1]
        return None


@dataclasses.dataclass
class TxnTimeline:
    """A logical transaction: the restart-linked chain of attempts."""

    root: int
    label: str
    arrival: float
    attempts: typing.List[Attempt] = dataclasses.field(default_factory=list)
    committed: bool = False
    response_ms: typing.Optional[float] = None  # from txn.commit

    @property
    def end(self) -> float:
        return self.attempts[-1].end if self.attempts else self.arrival

    @property
    def status(self) -> str:
        if self.committed:
            return "committed"
        last = self.attempts[-1] if self.attempts else None
        if last is not None and last.outcome == "abort":
            return "aborted"
        return "in_flight"

    @property
    def restarts(self) -> int:
        return max(0, len(self.attempts) - 1)

    def spans(self) -> typing.Iterator[typing.Tuple[Attempt, Span]]:
        for attempt in self.attempts:
            for span in attempt.spans:
                yield attempt, span

    def totals(self) -> typing.Dict[str, float]:
        """Budget-bucket totals (ms) for this transaction.

        Spans of attempts that aborted-and-restarted land in ``wasted``;
        the surviving attempt's spans split into queued / blocked /
        executing.  For a committed chain the four buckets sum to
        ``response_ms`` (the conservation invariant).
        """
        out = {"queued": 0.0, "blocked": 0.0, "executing": 0.0, "wasted": 0.0}
        for attempt, span in self.spans():
            if attempt.outcome == "abort":
                out["wasted"] += span.duration
            elif span.kind == "admission":
                out["queued"] += span.duration
            elif span.kind == "lock_wait":
                out["blocked"] += span.duration
            else:
                out["executing"] += span.duration
        return out


def _tile_attempt(attempt: Attempt) -> None:
    """Build the attempt's span list and check it tiles exactly."""
    end = attempt.end
    assert end is not None
    spans: typing.List[Span] = []
    cursor = attempt.start
    if attempt.admitted_at is None:
        # never admitted: the whole attempt is one admission wait
        spans.append(Span("admission", cursor, end))
        cursor = end
    else:
        spans.append(Span("admission", cursor, attempt.admitted_at))
        cursor = attempt.admitted_at
        for wait in attempt.waits:
            wait_end = end if wait.end is None else wait.end
            if wait.start > cursor:
                spans.append(Span("executing", cursor, wait.start))
            spans.append(
                Span(
                    "lock_wait",
                    wait.start,
                    wait_end,
                    file=wait.file,
                    flavor=wait.flavor,
                )
            )
            cursor = wait_end
        if cursor < end:
            spans.append(Span("executing", cursor, end))
    # drop zero-width tiles, then verify exact adjacency
    spans = [s for s in spans if s.end > s.start]
    cursor = attempt.start
    for span in spans:
        if span.start != cursor:
            raise ConservationError(
                f"T{attempt.txn_id}: span gap/overlap at {span.start} "
                f"(expected {cursor})"
            )
        if span.end < span.start:
            raise ConservationError(
                f"T{attempt.txn_id}: negative span {span.kind} "
                f"[{span.start}, {span.end}]"
            )
        cursor = span.end
    if spans and spans[-1].end != end:
        raise ConservationError(
            f"T{attempt.txn_id}: spans end at {spans[-1].end}, "
            f"attempt ends at {end}"
        )
    attempt.spans = spans


def _as_records(
    events: typing.Iterable[typing.Union[Record, TraceEvent]],
) -> typing.Iterator[Record]:
    for event in events:
        if isinstance(event, TraceEvent):
            yield event.to_record()
        else:
            yield event


class Attribution:
    """The folded view of one trace stream."""

    def __init__(
        self,
        transactions: typing.Dict[int, TxnTimeline],
        meta: typing.Dict[str, typing.Any],
        first_time: float,
        last_time: float,
        file_waits: typing.Dict[int, typing.Dict[str, float]],
        edges: typing.Dict[typing.Tuple[int, int], float],
    ) -> None:
        self.transactions = transactions
        self.meta = meta
        self.first_time = first_time
        self.last_time = last_time
        #: file -> {"blocked_ms", "waits", "max_convoy"}
        self.file_waits = file_waits
        #: (waiter_root, holder_root) -> co-blocked ms (time split evenly
        #: across the holders reported by each txn.block verdict)
        self.edges = edges

    # -- aggregate views ---------------------------------------------------

    @property
    def makespan_ms(self) -> float:
        return self.last_time - self.first_time

    def budget(self) -> typing.Dict[str, typing.Any]:
        """The batch-level time budget over transaction-seconds."""
        totals = {"queued": 0.0, "blocked": 0.0, "executing": 0.0,
                  "wasted": 0.0}
        committed = aborted_attempts = in_flight = restarts = 0
        responses: typing.List[float] = []
        for timeline in self.transactions.values():
            for bucket, value in timeline.totals().items():
                totals[bucket] += value
            restarts += timeline.restarts
            aborted_attempts += sum(
                1 for a in timeline.attempts if a.outcome == "abort"
            )
            if timeline.committed:
                committed += 1
                if timeline.response_ms is not None:
                    responses.append(timeline.response_ms)
            elif timeline.status == "in_flight":
                in_flight += 1
        total_ms = sum(totals.values())
        fractions = {
            bucket: (value / total_ms if total_ms > 0 else 0.0)
            for bucket, value in totals.items()
        }
        return {
            "queued_ms": totals["queued"],
            "blocked_ms": totals["blocked"],
            "executing_ms": totals["executing"],
            "wasted_ms": totals["wasted"],
            "total_ms": total_ms,
            "fractions": fractions,
            "makespan_ms": self.makespan_ms,
            "transactions": len(self.transactions),
            "committed": committed,
            "restarts": restarts,
            "aborted_attempts": aborted_attempts,
            "in_flight": in_flight,
            "mean_response_ms": (
                sum(responses) / len(responses) if responses else 0.0
            ),
        }

    def hotspots(self, top: int = 10) -> typing.List[typing.Dict[str, typing.Any]]:
        """Top files by blocked time, with convoy depth and top blockers."""
        blockers = self._per_file_blockers()
        table = []
        for file_id, stats in self.file_waits.items():
            ranked = sorted(
                blockers.get(file_id, {}).items(),
                key=lambda kv: (-kv[1], kv[0]),
            )
            table.append(
                {
                    "file": file_id,
                    "blocked_ms": stats["blocked_ms"],
                    "waits": int(stats["waits"]),
                    "max_convoy": int(stats["max_convoy"]),
                    "top_blockers": [
                        {"txn": txn, "ms": ms} for txn, ms in ranked[:3]
                    ],
                }
            )
        table.sort(key=lambda row: (-row["blocked_ms"], row["file"]))
        return table[:top]

    def _per_file_blockers(
        self,
    ) -> typing.Dict[int, typing.Dict[int, float]]:
        out: typing.Dict[int, typing.Dict[int, float]] = {}
        for timeline in self.transactions.values():
            for attempt in timeline.attempts:
                for wait in attempt.waits:
                    for start, duration, holders in _verdict_segments(
                        wait, attempt
                    ):
                        if not holders:
                            continue
                        share = duration / len(holders)
                        bucket = out.setdefault(wait.file, {})
                        for holder in holders:
                            root = self._root_of(holder)
                            bucket[root] = bucket.get(root, 0.0) + share
        return out

    def _root_of(self, txn_id: int) -> int:
        timeline = self._by_attempt.get(txn_id)
        return timeline.root if timeline is not None else txn_id

    @property
    def _by_attempt(self) -> typing.Dict[int, TxnTimeline]:
        cached = getattr(self, "_by_attempt_cache", None)
        if cached is None:
            cached = {}
            for timeline in self.transactions.values():
                for attempt in timeline.attempts:
                    cached[attempt.txn_id] = timeline
            self._by_attempt_cache = cached
        return cached

    def blocking_edges(
        self, top: int = 10
    ) -> typing.List[typing.Dict[str, typing.Any]]:
        """Heaviest waiter -> holder edges of the wait-for graph."""
        ranked = sorted(
            self.edges.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return [
            {"waiter": waiter, "holder": holder, "ms": ms}
            for (waiter, holder), ms in ranked[:top]
        ]

    def critical_path(
        self, max_hops: int = 64
    ) -> typing.List[typing.Dict[str, typing.Any]]:
        """Walk backward from the last commit through its blockers.

        Starting at the transaction whose commit ends the makespan (the
        last in-flight straggler when nothing committed), walk its spans
        backwards in wall-clock time.  A blocked lock wait is *caused*
        by whoever held the lock, so instead of keeping the wait span
        the walk jumps into the timeline of the holder whose completion
        released the lock (the latest-ending holder of the final
        ``txn.block`` verdict) and continues from the wait's end.  The
        result is the wall-clock-contiguous chain of spans the batch's
        tail latency rode on; delay-flavoured waits (pure policy, no
        holder) stay on the path attributed to the waiter.
        """
        if not self.transactions:
            return []
        committed = [
            tl for tl in self.transactions.values() if tl.committed
        ]
        pool = committed or list(self.transactions.values())
        timeline: typing.Optional[TxnTimeline] = max(
            pool, key=lambda tl: (tl.end, tl.root)
        )
        segments: typing.List[typing.Dict[str, typing.Any]] = []
        cursor = timeline.end
        hops = 0
        while timeline is not None and hops <= max_hops:
            jump: typing.Optional[typing.Tuple[int, float]] = None
            for attempt in reversed(timeline.attempts):
                if attempt.end is None:
                    continue
                for span in reversed(attempt.spans):
                    if span.start >= cursor:
                        continue
                    if span.kind == "lock_wait" and span.flavor == "block":
                        holder = self._releasing_holder(attempt, span)
                        if (
                            holder is not None
                            and holder in self._by_attempt
                        ):
                            jump = (holder, min(span.end, cursor))
                            break
                    segment = span.to_dict()
                    segment["end"] = min(span.end, cursor)
                    segments.append(
                        {
                            "txn": timeline.root,
                            "attempt": attempt.index,
                            **segment,
                        }
                    )
                    cursor = span.start
                if jump is not None:
                    break
            if jump is None:
                break
            holder_id, cursor = jump
            timeline = self._by_attempt.get(holder_id)
            hops += 1
        segments.reverse()
        return segments

    def _releasing_holder(
        self, attempt: Attempt, span: Span
    ) -> typing.Optional[int]:
        for wait in attempt.waits:
            if wait.file != span.file or wait.start != span.start:
                continue
            holders: typing.Tuple[int, ...] = ()
            for _, verdict_holders in wait.verdicts:
                if verdict_holders is not None:
                    holders = verdict_holders
            if not holders:
                return None
            # the holder whose own attempt ended last released the lock
            def end_of(txn_id: int) -> float:
                timeline = self._by_attempt.get(txn_id)
                return timeline.end if timeline is not None else -1.0

            return max(holders, key=lambda h: (end_of(h), -h))
        return None

    def anomalies(self) -> typing.List[typing.Dict[str, typing.Any]]:
        """Deterministic starvation and convoy flags."""
        flags: typing.List[typing.Dict[str, typing.Any]] = []
        responses = sorted(
            tl.response_ms
            for tl in self.transactions.values()
            if tl.committed and tl.response_ms is not None
        )
        if responses:
            median = responses[len(responses) // 2]
            for root in sorted(self.transactions):
                timeline = self.transactions[root]
                if not timeline.committed or timeline.response_ms is None:
                    continue
                totals = timeline.totals()
                waiting = totals["queued"] + totals["blocked"]
                response = timeline.response_ms
                if (
                    response >= STARVATION_FACTOR * median
                    and response > 0
                    and waiting / response >= STARVATION_WAIT_SHARE
                ):
                    flags.append(
                        {
                            "kind": "starvation",
                            "txn": root,
                            "response_ms": response,
                            "wait_share": waiting / response,
                            "median_response_ms": median,
                        }
                    )
        total_blocked = sum(
            stats["blocked_ms"] for stats in self.file_waits.values()
        )
        for file_id in sorted(self.file_waits):
            stats = self.file_waits[file_id]
            if (
                stats["max_convoy"] >= CONVOY_MIN_DEPTH
                and total_blocked > 0
                and stats["blocked_ms"] / total_blocked
                >= CONVOY_BLOCKED_SHARE
            ):
                flags.append(
                    {
                        "kind": "convoy",
                        "file": file_id,
                        "max_convoy": int(stats["max_convoy"]),
                        "blocked_ms": stats["blocked_ms"],
                        "blocked_share": stats["blocked_ms"] / total_blocked,
                    }
                )
        return flags


def _verdict_segments(
    wait: _Wait, attempt: Attempt
) -> typing.Iterator[
    typing.Tuple[float, float, typing.Optional[typing.Tuple[int, ...]]]
]:
    """(start, duration, holders) per verdict-delimited wait segment."""
    wait_end = wait.end
    if wait_end is None:
        wait_end = attempt.end if attempt.end is not None else wait.start
    verdicts = wait.verdicts or [(wait.start, None)]
    for i, (start, holders) in enumerate(verdicts):
        end = verdicts[i + 1][0] if i + 1 < len(verdicts) else wait_end
        if end > start:
            yield start, end - start, holders


def fold_trace(
    events: typing.Iterable[typing.Union[Record, TraceEvent]],
    strict: bool = True,
) -> Attribution:
    """Fold an ordered event stream into an :class:`Attribution`.

    ``strict`` (the default) raises :class:`ConservationError` when a
    committed transaction's spans do not sum to its reported response
    time; pass ``False`` only when inspecting hand-edited streams.
    """
    meta: typing.Dict[str, typing.Any] = {}
    timelines: typing.Dict[int, TxnTimeline] = {}
    by_attempt: typing.Dict[int, typing.Tuple[TxnTimeline, Attempt]] = {}
    open_waits_per_file: typing.Dict[int, int] = {}
    file_waits: typing.Dict[int, typing.Dict[str, float]] = {}
    first_time: typing.Optional[float] = None
    last_time = 0.0

    def file_stats(file_id: int) -> typing.Dict[str, float]:
        return file_waits.setdefault(
            file_id, {"blocked_ms": 0.0, "waits": 0, "max_convoy": 0}
        )

    def close_wait(attempt: Attempt, end: float) -> None:
        wait = attempt.open_wait()
        if wait is None:
            return
        wait.end = end
        stats = file_stats(wait.file)
        stats["blocked_ms"] += wait.end - wait.start
        open_waits_per_file[wait.file] = max(
            0, open_waits_per_file.get(wait.file, 1) - 1
        )

    def finish_attempt(
        timeline: TxnTimeline,
        attempt: Attempt,
        end: float,
        outcome: str,
        reason: typing.Optional[str] = None,
    ) -> None:
        close_wait(attempt, end)
        attempt.end = end
        attempt.outcome = outcome
        attempt.reason = reason
        _tile_attempt(attempt)

    for record in _as_records(events):
        kind = record["kind"]
        time = float(record["t"])
        if first_time is None and kind != "trace.meta":
            first_time = time
        last_time = max(last_time, time)
        if kind == "trace.meta":
            check_envelope(record, TRACE, "trace.meta header")
            meta = dict(record["payload"])
            continue
        if not kind.startswith("txn."):
            continue
        txn = record.get("txn")
        if kind == "txn.arrive":
            timeline = TxnTimeline(
                root=txn, label=record.get("label", "txn"), arrival=time
            )
            attempt = Attempt(txn_id=txn, index=0, start=time)
            timeline.attempts.append(attempt)
            timelines[txn] = timeline
            by_attempt[txn] = (timeline, attempt)
        elif kind == "txn.restart":
            entry = by_attempt.get(txn)
            if entry is None:
                continue
            timeline, attempt = entry
            # the matching txn.abort (same timestamp) already closed the
            # attempt; chain the successor from the restart time
            new_txn = record["new_txn"]
            successor = Attempt(
                txn_id=new_txn, index=attempt.index + 1, start=time
            )
            timeline.attempts.append(successor)
            by_attempt[new_txn] = (timeline, successor)
        elif txn in by_attempt:
            timeline, attempt = by_attempt[txn]
            if kind == "txn.admit":
                attempt.admitted_at = time
            elif kind == "txn.lock_wait":
                attempt.waits.append(
                    _Wait(file=record["file"], mode=record["mode"],
                          start=time)
                )
                stats = file_stats(record["file"])
                stats["waits"] += 1
                depth = open_waits_per_file.get(record["file"], 0) + 1
                open_waits_per_file[record["file"]] = depth
                stats["max_convoy"] = max(stats["max_convoy"], depth)
            elif kind == "txn.lock_acquired":
                close_wait(attempt, time)
            elif kind == "txn.block":
                wait = attempt.open_wait()
                if wait is not None:
                    wait.verdicts.append(
                        (time, tuple(record["holders"]))
                    )
            elif kind == "txn.delay":
                wait = attempt.open_wait()
                if wait is not None:
                    wait.verdicts.append((time, None))
            elif kind == "txn.step_start":
                attempt.steps.append(
                    (record["file"], record["step"], time, time)
                )
            elif kind == "txn.step_end":
                for i in range(len(attempt.steps) - 1, -1, -1):
                    file_id, step, start, end = attempt.steps[i]
                    if (
                        file_id == record["file"]
                        and step == record["step"]
                        and end == start
                    ):
                        attempt.steps[i] = (file_id, step, start, time)
                        break
            elif kind == "txn.commit":
                timeline.committed = True
                timeline.response_ms = float(record["response_ms"])
                finish_attempt(timeline, attempt, time, "commit")
            elif kind == "txn.abort":
                finish_attempt(
                    timeline, attempt, time, "abort",
                    reason=record.get("reason"),
                )
        # txn.admit_reject and unmatched ids: nothing to fold

    # close whatever is still open at stream end (truncated run window)
    for timeline in timelines.values():
        attempt = timeline.attempts[-1]
        if attempt.end is None:
            finish_attempt(timeline, attempt, last_time, "in_flight")
            attempt.outcome = "in_flight"

    attribution = Attribution(
        transactions=timelines,
        meta=meta,
        first_time=first_time if first_time is not None else 0.0,
        last_time=last_time,
        file_waits=file_waits,
        edges=_blocking_edges(timelines),
    )
    if strict:
        check_conservation(attribution)
    return attribution


def _blocking_edges(
    timelines: typing.Dict[int, TxnTimeline],
) -> typing.Dict[typing.Tuple[int, int], float]:
    roots: typing.Dict[int, int] = {}
    for timeline in timelines.values():
        for attempt in timeline.attempts:
            roots[attempt.txn_id] = timeline.root
    edges: typing.Dict[typing.Tuple[int, int], float] = {}
    for timeline in timelines.values():
        for attempt in timeline.attempts:
            for wait in attempt.waits:
                for start, duration, holders in _verdict_segments(
                    wait, attempt
                ):
                    if not holders:
                        continue
                    share = duration / len(holders)
                    for holder in holders:
                        key = (timeline.root, roots.get(holder, holder))
                        edges[key] = edges.get(key, 0.0) + share
    return edges


def fold_trace_path(path: PathLike, strict: bool = True) -> Attribution:
    """Fold a JSONL trace artifact (see :func:`fold_trace`)."""
    return fold_trace(read_jsonl(path), strict=strict)


def check_conservation(attribution: Attribution) -> None:
    """Assert the invariant: spans of every committed chain sum to its
    reported response time (float-roundoff tolerance only)."""
    for root in sorted(attribution.transactions):
        timeline = attribution.transactions[root]
        if not timeline.committed or timeline.response_ms is None:
            continue
        total = sum(
            span.duration for _, span in timeline.spans()
        )
        if not math.isclose(
            total,
            timeline.response_ms,
            rel_tol=CONSERVATION_REL_TOL,
            abs_tol=CONSERVATION_ABS_TOL,
        ):
            raise ConservationError(
                f"T{root}: spans sum to {total} ms but txn.commit "
                f"reported response_ms={timeline.response_ms}"
            )
