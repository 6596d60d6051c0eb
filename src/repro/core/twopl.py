"""Strict two-phase locking with deadlock detection (extra baseline).

Not one of the paper's six schedulers: the paper dismisses "the
traditional two-phase locking protocol" up front because chains of
blocking cripple it on batch workloads, and evaluates the *cautious*
variant (C2PL) instead.  This implementation makes that dismissed
baseline measurable: locks are requested at first need with no
prediction at all; a waits-for cycle is resolved by aborting the
youngest transaction in the cycle, which restarts from scratch.

Each lock-request evaluation pays ``ddtime`` (the deadlock-detection
cost C2PL is charged in Table 1).
"""

from __future__ import annotations

import typing

from repro.core.base import Decision, Scheduler
from repro.txn.step import AccessMode
from repro.txn.transaction import BatchTransaction


class TwoPLScheduler(Scheduler):
    """Plain strict 2PL; deadlocks broken by aborting the youngest."""

    name = "2PL"

    def __init__(self, *args: typing.Any, **kwargs: typing.Any) -> None:
        super().__init__(*args, **kwargs)
        #: waits-for edges: waiter txn id -> ids of the holders it waits on
        self._waits_for: typing.Dict[int, typing.Set[int]] = {}
        #: transactions told to abort at their next evaluation
        self._doomed: typing.Set[int] = set()
        #: admission order, used as age for victim selection
        self._admission_order: typing.Dict[int, int] = {}
        self._admitted = 0

    def _try_admit(self, txn: BatchTransaction) -> typing.Generator:
        self._admitted += 1
        self._admission_order[txn.txn_id] = self._admitted
        return True
        yield  # pragma: no cover - generator marker

    def is_doomed(self, txn: BatchTransaction) -> bool:
        """True when deadlock resolution picked this transaction as the
        victim; the executor must abort and restart it."""
        return txn.txn_id in self._doomed

    def _try_acquire(
        self, txn: BatchTransaction, file_id: int, mode: AccessMode
    ) -> typing.Generator:
        yield from self.control_node.consume(self.config.ddtime_ms, "cc-2pl")
        if txn.txn_id in self._doomed:
            # victim: report DELAY; the executor polls is_doomed() and
            # aborts (acquire would otherwise spin on the dead waiter)
            return Decision.DELAY
        if not self.lock_table.is_compatible(file_id, mode):
            holders = self.lock_table.holders(file_id) - {txn.txn_id}
            self._waits_for[txn.txn_id] = holders
            victim = self._find_deadlock_victim(txn.txn_id)
            if victim is not None:
                self._doomed.add(victim)
                if self._trace.enabled:
                    self._trace.emit(
                        self.env.now, "sched.victim", txn=victim
                    )
                self._notify_all()  # the victim may be parked anywhere
                if victim == txn.txn_id:
                    self._waits_for.pop(txn.txn_id, None)
                    return Decision.DELAY  # next loop pass raises the abort
            return Decision.BLOCK
        self._waits_for.pop(txn.txn_id, None)
        self._grant_lock(txn, file_id, mode)
        return Decision.GRANT

    def _doomed_check(self, txn: BatchTransaction) -> bool:
        return txn.txn_id in self._doomed

    def timeseries_probes(
        self,
    ) -> typing.Dict[str, typing.Dict[str, typing.Any]]:
        """Base catalogue plus the waits-for graph's live edge count."""
        from repro.obs.timeseries import gauge, size_hist

        probes = super().timeseries_probes()
        probes["sched.waits_for_edges"] = {
            "probe": gauge(
                lambda: sum(len(v) for v in self._waits_for.values())
            ),
            "unit": "edges",
            "hist": size_hist(),
        }
        return probes

    def _find_deadlock_victim(self, start: int) -> typing.Optional[int]:
        """DFS the waits-for graph from ``start``; on a cycle through
        ``start``, return the youngest transaction on it.

        Stack entries carry their path as a cons chain (node, parent
        entry) instead of a copied list, so a push is O(1); the chain is
        materialised only for the one entry that closes the cycle.  The
        push order -- and therefore which cycle is found first -- is
        identical to the list-copying version.
        """
        waits_for = self._waits_for
        root = (start, None)
        stack: typing.List[typing.Tuple[int, typing.Optional[tuple]]] = [
            (h, root) for h in waits_for.get(start, ())
        ]
        visited: typing.Set[int] = set()
        while stack:
            node, parent = stack.pop()
            if node == start:
                # the cycle is the path minus the final repeat of start
                cycle = []
                entry: typing.Optional[tuple] = parent
                while entry is not None:
                    cycle.append(entry[0])
                    entry = entry[1]
                return max(
                    cycle, key=lambda t: self._admission_order.get(t, 0)
                )
            if node in visited:
                continue
            visited.add(node)
            entry = (node, parent)
            for nxt in waits_for.get(node, ()):
                stack.append((nxt, entry))
        return None

    def _cleanup(self, txn: BatchTransaction) -> None:
        self._waits_for.pop(txn.txn_id, None)
        self._doomed.discard(txn.txn_id)
        self._admission_order.pop(txn.txn_id, None)
        for waiters in self._waits_for.values():
            waiters.discard(txn.txn_id)

    def _on_commit(self, txn: BatchTransaction) -> typing.Generator:
        self._cleanup(txn)
        return
        yield  # pragma: no cover - generator marker

    def _on_abort(self, txn: BatchTransaction) -> typing.Generator:
        self._cleanup(txn)
        return
        yield  # pragma: no cover - generator marker
