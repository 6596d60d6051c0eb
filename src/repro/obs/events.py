"""The trace event model: one flat record per observed occurrence.

Events are deliberately plain -- a simulation timestamp, a dotted
``kind`` string and a small dict of fields -- so that recording stays
cheap and every exporter (JSONL, Chrome trace, text summary) can walk
the same stream without isinstance dispatch.

Kinds are namespaced by subsystem:

``txn.*``
    Transaction lifecycle: ``arrive``, ``admit``, ``admit_reject``,
    ``lock_wait`` (wait begins), ``lock_acquired`` (wait ends),
    ``block`` / ``delay`` (one scheduler verdict each), ``step_start`` /
    ``step_end`` (the machine scan of one step), ``restart``,
    ``commit``, ``abort``.
``lock.*``
    Lock-table transitions per granule: ``grant``, ``release``.
``sched.*``
    Policy decisions: ``wtpg_fix`` (precedence-edge insertion),
    ``chain_test`` (GOW chain-form admission verdict), ``chain_order``
    (the serializable order W GOW committed to), ``kconflict`` (LOW's
    K-conflict admission verdict), ``e_eval`` (LOW's E(q) verdict),
    ``cycle_test`` (C2PL deadlock prediction), ``victim`` (plain 2PL
    deadlock victim), ``opt_validation`` (OPT certification outcome),
    ``dgcc_admit`` (DGCC batch membership), ``queue_assign`` /
    ``repartition`` (CAR queue placement and re-partition sweeps),
    ``conflict_pred`` (PRED admission score and verdict).
``node.*``
    Data-processing nodes: ``busy`` / ``idle`` transitions and
    ``queue`` depth changes.
``cn.*``
    Control node: ``exec_start`` / ``exec_end`` CPU slices (with the
    Table-1 cost category).
``res.*``
    Named waiting lines: ``queue`` depth changes (``cn.cpu``, the
    slices waiting for the control node's CPU).
``trace.*``
    Stream metadata: ``meta``, the header line of a JSONL trace -- the
    :mod:`repro.artifact` envelope around the run identity.
"""

from __future__ import annotations

import typing

from repro.artifact import ENVELOPE_FIELDS, Family


class TraceEvent(typing.NamedTuple):
    """One observed occurrence at simulated time ``time`` (ms)."""

    time: float
    kind: str
    fields: typing.Dict[str, typing.Any]

    def to_record(self) -> typing.Dict[str, typing.Any]:
        """The flat JSON-ready form used by the JSONL exporter."""
        record: typing.Dict[str, typing.Any] = {"t": self.time, "kind": self.kind}
        record.update(self.fields)
        return record


#: every kind the instrumented simulator emits, mapped to the field
#: names each event must carry (the TRACE stream check enforces this)
EVENT_KINDS: typing.Dict[str, typing.Tuple[str, ...]] = {
    "trace.meta": ENVELOPE_FIELDS,
    # -- transaction lifecycle --------------------------------------------
    "txn.arrive": ("txn", "label"),
    "txn.admit": ("txn",),
    "txn.admit_reject": ("txn",),
    "txn.lock_wait": ("txn", "file", "mode"),
    "txn.lock_acquired": ("txn", "file", "wait_ms"),
    "txn.block": ("txn", "file", "holders"),
    "txn.delay": ("txn", "file"),
    "txn.step_start": ("txn", "file", "step", "cost"),
    "txn.step_end": ("txn", "file", "step"),
    "txn.restart": ("txn", "new_txn", "reason"),
    "txn.commit": ("txn", "response_ms"),
    "txn.abort": ("txn", "reason"),
    # -- lock table -------------------------------------------------------
    "lock.grant": ("txn", "file", "mode"),
    "lock.release": ("txn", "file"),
    # -- scheduler decisions ----------------------------------------------
    "sched.wtpg_fix": ("src", "dst"),
    "sched.chain_test": ("txn", "ok"),
    "sched.chain_order": ("txn", "file", "consistent"),
    "sched.kconflict": ("txn", "ok"),
    "sched.e_eval": ("txn", "file", "e_q", "granted"),
    "sched.cycle_test": ("txn", "file", "deadlock"),
    "sched.victim": ("txn",),
    "sched.opt_validation": ("txn", "ok"),
    "sched.dgcc_admit": ("txn", "epoch", "batch"),
    "sched.queue_assign": ("txn", "queue"),
    "sched.repartition": ("live", "moved"),
    "sched.conflict_pred": ("txn", "score", "admitted"),
    # -- machine resources ------------------------------------------------
    "node.busy": ("node",),
    "node.idle": ("node",),
    "node.queue": ("node", "depth"),
    "cn.exec_start": ("category", "cost_ms"),
    "cn.exec_end": ("category",),
    "res.queue": ("name", "depth"),
}


def event_kinds() -> typing.Tuple[str, ...]:
    """All known kinds, sorted (documentation/validation helper)."""
    return tuple(sorted(EVENT_KINDS))


def _check_meta(payload: typing.Any) -> None:
    if not isinstance(payload, dict):
        raise ValueError(f"trace meta must be a mapping, got {payload!r}")


#: the JSONL trace: a ``trace.meta`` header, then events on the
#: simulated clock ``t``, which never goes backwards
TRACE = Family(
    "trace", 1, _check_meta,
    header="trace.meta", clock="t", kinds=EVENT_KINDS, monotone=True,
)
