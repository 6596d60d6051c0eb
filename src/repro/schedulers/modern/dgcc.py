"""DGCC-style dependency-graph batch execution (arXiv:1503.03642).

Yao et al.'s Dependency-Graph-based Concurrency Control separates
contention resolution from execution: transactions are grouped into
batches, each batch's declared access sets are compiled into dependency
graphs, and execution then simply follows the graphs -- no locks are
negotiated at run time, and non-conflicting subgraphs execute fully in
parallel.

This scheduler transplants the idea onto the paper's machine model, as a
natural evolution of the WTPG family:

- **Batch formation.**  Arrivals join the currently-forming batch until
  it holds ``batch_size`` members; a full batch *seals* and later
  arrivals wait until every member has committed, at which point the
  next epoch opens.  (An unfilled batch keeps admitting, so light loads
  never stall waiting for a quorum.)  A rejected admission parks on the
  *epoch pool*, which only the drain wakes: the commits inside an epoch
  cannot change its verdict.
- **Graph construction.**  Admission records the newcomer's declared
  access set in per-file declaration queues; the dependency order
  within the batch is the admission order.  The conflict graph over the
  batch decomposes into connected components
  (:meth:`DGCCScheduler.dependency_components`) -- transactions in
  different components share no declared file and proceed with no
  interaction whatsoever.
- **Graph-parallel execution.**  A lock request is granted iff it is
  compatible with the lock table *and* no live batch member admitted
  earlier declared a conflicting access to the same file
  (:class:`~repro.schedulers.modern.base.DeclaredOrderScheduler`);
  otherwise the requester waits for its graph predecessors to commit.
  Grants follow the compiled order exactly, so execution is
  deadlock-free and conflict-equivalent to the admission order.

Each admission and each grant evaluation costs ``ddtime_ms`` of CN CPU
(the same Table-1 bookkeeping charge C2PL pays per deadlock test).
"""

from __future__ import annotations

import typing

from repro.core.base import Decision
from repro.des import Event
from repro.schedulers.modern.base import DeclaredOrderScheduler
from repro.txn.step import AccessMode
from repro.txn.transaction import BatchTransaction


class DGCCScheduler(DeclaredOrderScheduler):
    """Dependency-graph batch execution over declared access sets."""

    name = "DGCC"

    def __init__(
        self,
        *args: typing.Any,
        batch_size: int = 8,
        **kwargs: typing.Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        #: a sealed batch admits nobody until it has fully committed
        self._sealed = False
        #: completed epochs (batches fully committed)
        self._epoch = 0
        #: admissions rejected by the sealed batch, woken at its drain
        self._epoch_waiters: typing.List[typing.Tuple[float, Event]] = []

    # -- admission: batch formation ---------------------------------------

    def _try_admit(self, txn: BatchTransaction) -> typing.Generator:
        yield from self.control_node.consume(self.config.ddtime_ms, "cc-dgcc")
        if self._live and self._sealed:
            return False  # the sealed batch is still draining
        self._order_admit(txn)
        if len(self._live) >= self.batch_size:
            self._sealed = True
        if self._trace.enabled:
            self._trace.emit(
                self.env.now,
                "sched.dgcc_admit",
                txn=txn.txn_id,
                epoch=self._epoch,
                batch=len(self._live),
            )
        return True

    # -- execution: follow the dependency graph ----------------------------

    def _try_acquire(
        self, txn: BatchTransaction, file_id: int, mode: AccessMode
    ) -> typing.Generator:
        yield from self.control_node.consume(self.config.ddtime_ms, "cc-dgcc")
        if not self.lock_table.is_compatible(file_id, mode):
            return Decision.BLOCK
        if self._has_conflict_predecessor(txn, file_id, mode):
            # a graph predecessor has not finished with the file yet
            return Decision.DELAY
        self._grant_lock(txn, file_id, mode)
        return Decision.GRANT

    def _admission_waiters(self) -> typing.List[typing.Tuple[float, Event]]:
        return self._epoch_waiters

    def _on_commit(self, txn: BatchTransaction) -> typing.Generator:
        yield from super()._on_commit(txn)
        if not self._live:
            self._sealed = False  # the epoch drained; the next one may open
            self._epoch += 1
            waiters, self._epoch_waiters = self._epoch_waiters, []
            self._wake(waiters)

    # -- the dependency graphs --------------------------------------------

    def dependency_components(self) -> typing.List[typing.FrozenSet[int]]:
        """The batch's conflict-free partition, as sets of txn ids.

        Components are the connected components of the shared-declared-
        file graph over live batch members: two transactions in
        *different* components never declared the same file, so the
        components execute with no interaction.  Ordered by the lowest
        admission order they contain.
        """
        parent = {txn_id: txn_id for txn_id in self._live}

        def find(node: int) -> int:
            root = node
            while parent[root] != root:
                root = parent[root]
            while parent[node] != root:  # path compression
                parent[node], node = root, parent[node]
            return root

        for declarers in self._declared.values():
            ids = iter(declarers)
            first = find(next(ids))
            for other in ids:
                parent[find(other)] = first
        groups: typing.Dict[int, typing.Set[int]] = {}
        for txn_id in self._live:
            groups.setdefault(find(txn_id), set()).add(txn_id)
        return sorted(
            (frozenset(members) for members in groups.values()),
            key=lambda c: min(self._order[t] for t in c),
        )

    def timeseries_probes(
        self,
    ) -> typing.Dict[str, typing.Dict[str, typing.Any]]:
        """Base catalogue plus batch occupancy and graph decomposition."""
        from repro.obs.timeseries import gauge, size_hist

        probes = super().timeseries_probes()
        probes["sched.dgcc_batch"] = {
            "probe": gauge(lambda: len(self._live)),
            "unit": "txn",
            "hist": size_hist(),
        }
        probes["sched.dgcc_components"] = {
            "probe": gauge(lambda: len(self.dependency_components())),
            "unit": "graphs",
            "hist": size_hist(),
        }
        probes["sched.dgcc_backlog"] = {
            "probe": gauge(lambda: len(self._epoch_waiters)),
            "unit": "txn",
            "hist": size_hist(),
        }
        probes["sched.dgcc_epochs.cum"] = {
            "probe": gauge(lambda: self._epoch),
            "unit": "batches",
        }
        return probes
