"""GOW: the Globally-Optimized WTPG scheduler (Section 3.2, Figs. 3-4).

GOW plans globally: it computes the full serializable order W that makes
the *shortest critical path* in the current WTPG and only grants lock
requests whose precedence consequences are consistent with W.

Finding W is NP-hard in general, so GOW restricts the WTPG to *chain
form* (every general transaction conflicts only with its neighbours in a
path); the start of a transaction that would break the chain is aborted
and re-submitted later (Phase 0).  Within a chain W is computed in low
polynomial time (:mod:`repro.core.chain`).

CPU costs (Table 1): ``toptime`` (5 ms) per chain-form test, ``chaintime``
(30 ms) per W computation -- charged on every decision past Phase 1,
however little of W the simulator actually solves.
"""

from __future__ import annotations

import typing

from repro.core.base import Decision, Scheduler, WTPGSchedulerMixin
from repro.core.chain import (
    compute_optimal_order,
    keeps_chain_form_incremental,
)
from repro.core.wtpg import WTPG
from repro.txn.step import AccessMode
from repro.txn.transaction import BatchTransaction


class GOWScheduler(WTPGSchedulerMixin, Scheduler):
    """Chain-form WTPG scheduler with globally-optimised serialization."""

    name = "GOW"

    def __init__(self, *args: typing.Any, **kwargs: typing.Any) -> None:
        super().__init__(*args, **kwargs)
        self.wtpg = WTPG()

    # -- Phase 0: chain-form admission -------------------------------------------

    def _try_admit(self, txn: BatchTransaction) -> typing.Generator:
        yield from self.control_node.consume(self.config.toptime_ms, "cc-gow")
        # GOW keeps the graph chain-form invariantly, so the incremental
        # test (degrees + one path walk) replaces the full re-verification.
        ok = keeps_chain_form_incremental(self.wtpg, txn)
        if self._trace.enabled:
            self._trace.emit(
                self.env.now, "sched.chain_test", txn=txn.txn_id, ok=ok
            )
        if not ok:
            return False  # start aborted; re-submitted after some delay
        self._register_in_wtpg(txn)
        return True

    # -- Phases 1-4: Fig. 4 ---------------------------------------------------------

    def _try_acquire(
        self, txn: BatchTransaction, file_id: int, mode: AccessMode
    ) -> typing.Generator:
        # Phase 1: blocked by a held lock?
        if not self.lock_table.is_compatible(file_id, mode):
            return Decision.BLOCK
        # Phase 2: compute the optimal full serializable order W.  The
        # decision after the CPU wait is atomic; the lock may have been
        # taken while we computed, so re-check Phase 1.
        yield from self.control_node.consume(self.config.chaintime_ms, "cc-gow")
        if not self.lock_table.is_compatible(file_id, mode):
            return Decision.BLOCK
        # Phase 3: delay q if its precedence consequences contradict W.
        # A grant that fixes no order agrees with any W.  Every fix
        # target is a neighbour of the requester, and W orients each
        # component on its own, so only the requester's component is
        # solved.
        fixes = self.wtpg.fixes_for_grant(txn.txn_id, file_id)
        consistent = True
        if fixes:
            order = compute_optimal_order(self.wtpg, around=txn.txn_id)
            consistent = all(
                order.consistent_with_fix(i, j) for i, j in fixes
            )
        if self._trace.enabled:
            # the chain orientation GOW committed to for this decision
            self._trace.emit(
                self.env.now,
                "sched.chain_order",
                txn=txn.txn_id,
                file=file_id,
                consistent=consistent,
            )
        if not consistent:
            return Decision.DELAY
        # Granted; Phase 4 replaces newly determined conflict edges.
        self._grant_lock(txn, file_id, mode)
        applied = self.wtpg.grant(txn.txn_id, file_id, fixes=fixes)
        if self._trace.enabled:
            self._emit_wtpg_fixes(applied)
        return Decision.GRANT

    def _on_commit(self, txn: BatchTransaction) -> typing.Generator:
        self._deregister_from_wtpg(txn)
        return
        yield  # pragma: no cover - generator marker
