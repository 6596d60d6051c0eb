"""LOW: the Locally-Optimized WTPG scheduler (Section 3.3, Figs. 5-7).

LOW grants a lock-request q only when q causes the smallest degree of
contention *in the current state*: it computes E(q) -- the critical path
of the WTPG after hypothetically granting q, with remaining conflict
edges ignored and deadlock mapping to infinity -- and grants q iff
``E(q) <= E(p)`` for every declared access p conflicting with q on the
same granule (the set C(q)).

The size of C(q) is capped at K (the paper uses K = 2): a new transaction
is admitted only while no access declaration's conflict set would exceed
K.  Even at K = 1 this allows non-chain-form WTPGs, which is why LOW
runs more transactions than GOW on hot sets.

CPU cost: every E() evaluation costs ``kwtpgtime`` (10 ms) on the CN, so
one request evaluation costs ``(1 + |C(q)|) * kwtpgtime``, however little
the simulator's own evaluation (:meth:`WTPG.grant_raise`) reads.
"""

from __future__ import annotations

import math
import typing

from repro.core.base import Decision, Scheduler, WTPGSchedulerMixin
from repro.core.wtpg import WTPG
from repro.txn.step import AccessMode
from repro.txn.transaction import BatchTransaction


class LOWScheduler(WTPGSchedulerMixin, Scheduler):
    """K-conflict locally-optimised WTPG scheduler."""

    name = "LOW"

    def __init__(self, *args: typing.Any, k: int = 2, **kwargs: typing.Any) -> None:
        super().__init__(*args, **kwargs)
        if k < 0:
            raise ValueError(f"K must be >= 0, got {k}")
        self.k = k
        self.wtpg = WTPG()

    # -- admission: the K-conflict limit ----------------------------------------

    def _conflict_counts_ok(self, txn: BatchTransaction) -> bool:
        """Would admitting ``txn`` keep every |C(q)| <= K?

        For each file, the declared accesses conflicting with an access p
        are those of other active transactions whose mode clashes with
        p's.  Admission must keep the new transaction's own sets and every
        existing set within K.  The WTPG's per-file declaration indexes
        answer each set in O(declarers of the file) instead of a scan
        over every active transaction.
        """
        wtpg = self.wtpg
        for file_id in txn.files:
            mode = txn.mode_for(file_id)
            conflicting = wtpg.declared_conflicters(
                file_id, mode, exclude=txn.txn_id
            )
            # the newcomer's own C(q) on this file
            if len(conflicting) > self.k:
                return False
            # each existing conflicting access gains one conflict
            count = wtpg.declared_conflict_count
            for other_id in conflicting:
                if count(other_id, file_id) + 1 > self.k:
                    return False
        return True

    def _conflict_count(self, txn_id: int, file_id: int) -> int:
        """|C(p)| for the access of ``txn_id`` on ``file_id`` right now."""
        return self.wtpg.declared_conflict_count(txn_id, file_id)

    def _try_admit(self, txn: BatchTransaction) -> typing.Generator:
        ok = self._conflict_counts_ok(txn)
        if self._trace.enabled:
            self._trace.emit(
                self.env.now, "sched.kconflict", txn=txn.txn_id, ok=ok
            )
        if not ok:
            return False
        self._register_in_wtpg(txn)
        return True
        yield  # pragma: no cover - generator marker

    # -- lock requests: Fig. 7 -----------------------------------------------------

    def _conflicting_declarations(
        self, txn: BatchTransaction, file_id: int, mode: AccessMode
    ) -> typing.List[int]:
        """C(q): ids of active transactions whose declared access to the
        granule conflicts with q (excluding current lock holders, whose
        access already happened -- against them q is simply blocked)."""
        opponents = self.wtpg.declared_conflicters(
            file_id, mode, exclude=txn.txn_id
        )
        opponents -= self.lock_table.holders(file_id)
        return sorted(opponents)

    def _try_acquire(
        self, txn: BatchTransaction, file_id: int, mode: AccessMode
    ) -> typing.Generator:
        # Phase 1: blocked by a held lock? (no E computation, no CPU cost)
        if not self.lock_table.is_compatible(file_id, mode):
            return Decision.BLOCK
        # Pay for E(q) plus one E(p) per conflicting declaration up front;
        # the decision itself must be atomic (no yields) because the CN
        # CPU wait can reorder scheduler state under us.
        evaluations = 1 + len(
            self._conflicting_declarations(txn, file_id, mode)
        )
        yield from self.control_node.consume(
            evaluations * self.config.kwtpgtime_ms, "cc-low"
        )
        if not self.lock_table.is_compatible(file_id, mode):
            return Decision.BLOCK  # lock taken while we computed
        # Phase 2: E(q); deadlock delays q.  Phase 3: grant only if
        # E(q) <= E(p) for every p in C(q).  E(q) > E(p) iff r_q > r_p
        # and r_q exceeds the critical path now (``grant_raise``), so
        # that path is read only when r_q > r_p -- or for the trace.
        wtpg = self.wtpg
        t0: typing.Dict[int, float] = {}  # T0 weights, read once each
        r_q, fixes = wtpg.grant_raise(txn.txn_id, file_id, t0)
        granted = not math.isinf(r_q)
        if granted:
            for other_id in self._conflicting_declarations(txn, file_id, mode):
                r_p, _ = wtpg.grant_raise(other_id, file_id, t0)
                if r_q > r_p and r_q > wtpg.critical_path_length(t0):
                    granted = False
                    break
        if self._trace.enabled:
            e_q = r_q
            if not math.isinf(r_q):
                e_q = max(wtpg.critical_path_length(t0), r_q)
            self._trace.emit(
                self.env.now, "sched.e_eval", txn=txn.txn_id,
                file=file_id, e_q=e_q, granted=granted,
            )
        if not granted:
            return Decision.DELAY
        # Granted; Phase 4 fixes newly determined precedence edges.
        self._grant_lock(txn, file_id, mode)
        applied = wtpg.grant(txn.txn_id, file_id, fixes=fixes)
        if self._trace.enabled:
            self._emit_wtpg_fixes(applied)
        return Decision.GRANT

    def _on_commit(self, txn: BatchTransaction) -> typing.Generator:
        self._deregister_from_wtpg(txn)
        return
        yield  # pragma: no cover - generator marker
