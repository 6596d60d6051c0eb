"""Shared engine for the modern schedulers: admission-order granting.

All three modern policies (DGCC batches, conflict-aware reordering,
conflict-prediction admission) differ in *when* they let a transaction
run, but they resolve conflicts with the same rule: a lock is granted
only when no **live transaction admitted earlier** declared a
conflicting access to the same file.  Because batch transactions declare
their full access sets up front (the paper's Section 2 workload model),
this rule is decidable at request time from declarations alone.

Why the rule is safe:

- *Deadlock freedom.*  Every wait points at a transaction with a lower
  admission order.  Delays do by construction; so do blocks, because a
  conflicting lock holder either was admitted before the requester, or
  was granted the lock while the requester was live -- which the rule
  permits only for earlier admissions.  Waits-for therefore embeds into
  the admission order and cannot cycle, and the lowest-order live
  transaction always progresses.
- *Serializability.*  Conflicting accesses execute strictly in admission
  order, so every history is conflict-equivalent to the serial history
  in admission order.  The :class:`~repro.sim.audit.SerializabilityAuditor`
  double-checks this claim empirically on every audited run.

Exact wake-ups.  A DELAY verdict of this family depends only on the live
set, the admission order and (CAR only) queue membership.  A grant
changes none of them, and an admission adds only a later-ordered member,
which can delay nobody already waiting.  So a DELAYed request parks with
no ``retry_delay_ms`` fallback and is woken exactly when its verdict can
change: at commit and abort (``_leave`` notifies) and at a CAR
re-partition that moved someone.  No wake-up can be lost: every
``_try_*`` charges its CN time first and decides after it, and the
caller then parks with no yield in between, so any state change after
the decision finds the request already parked.
"""

from __future__ import annotations

import typing

from repro.core.base import Scheduler
from repro.txn.step import AccessMode
from repro.txn.transaction import BatchTransaction


class DeclaredOrderScheduler(Scheduler):
    """Scheduler base that tracks live declarations in admission order."""

    #: DELAYs are woken exactly (module docstring): no polling
    delay_fallback = False

    def __init__(self, *args: typing.Any, **kwargs: typing.Any) -> None:
        super().__init__(*args, **kwargs)
        #: admission sequence number (the conflict-resolution order)
        self._admit_seq = 0
        #: admission order of each live transaction
        self._order: typing.Dict[int, int] = {}
        #: live transactions by id
        self._live: typing.Dict[int, BatchTransaction] = {}
        #: per-file declaration index: file -> {txn_id: declared mode}
        self._declared: typing.Dict[int, typing.Dict[int, AccessMode]] = {}

    # -- bookkeeping -------------------------------------------------------

    def _order_admit(self, txn: BatchTransaction) -> int:
        """Record a newly admitted transaction; returns its order."""
        order = self._admit_seq
        self._admit_seq += 1
        self._order[txn.txn_id] = order
        self._live[txn.txn_id] = txn
        for file_id in txn.files:
            self._declared.setdefault(file_id, {})[txn.txn_id] = (
                txn.mode_for(file_id)
            )
        return order

    def _order_forget(self, txn: BatchTransaction) -> None:
        """Drop a committed/aborted transaction from the index."""
        self._live.pop(txn.txn_id, None)
        self._order.pop(txn.txn_id, None)
        for file_id in txn.files:
            declarers = self._declared.get(file_id)
            if declarers is not None:
                declarers.pop(txn.txn_id, None)
                if not declarers:
                    del self._declared[file_id]

    # -- the grant rule ----------------------------------------------------

    def _has_conflict_predecessor(
        self, txn: BatchTransaction, file_id: int, mode: AccessMode
    ) -> bool:
        """True iff a live earlier-admitted transaction declared a
        conflicting access to ``file_id`` (the requester must wait)."""
        my_order = self._order[txn.txn_id]
        for other_id, other_mode in self._declared.get(file_id, {}).items():
            if other_id == txn.txn_id:
                continue
            if (
                self._order[other_id] < my_order
                and other_mode.conflicts_with(mode)
            ):
                return True
        return False

    def _declared_conflict_files(
        self, txn: BatchTransaction
    ) -> typing.List[int]:
        """The files of ``txn`` on which some live transaction declared a
        conflicting access (sorted; used for conflict scoring)."""
        hot: typing.List[int] = []
        for file_id in txn.files:
            mode = txn.mode_for(file_id)
            for other_id, other_mode in self._declared.get(file_id, {}).items():
                if other_id != txn.txn_id and other_mode.conflicts_with(mode):
                    hot.append(file_id)
                    break
        return hot

    def _on_commit(self, txn: BatchTransaction) -> typing.Generator:
        self._order_forget(txn)
        return
        yield  # pragma: no cover - generator marker
