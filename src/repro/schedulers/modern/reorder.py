"""Conflict-aware batch reordering / queue assignment (arXiv:1810.01997).

Prasaad et al. show that under high contention it pays to *reorder*
transactions before running them: partition the ready set by its
conflict graph so that conflicting transactions land in the same
execution queue (where they run serially, never fighting) while the
queues themselves stay mutually low-contention and run in parallel.

Transplanted onto the paper's machine model:

- **Queue assignment.**  Admission greedily places the newcomer in the
  queue holding the most transactions it declares conflicts with
  (co-locating contention), breaking ties toward the shortest queue and
  then the lowest index -- the standard greedy heuristic for conflict-
  graph partitioning.
- **Serial-per-queue dispatch.**  A transaction may begin executing only
  while it holds the lowest admission order among its queue's live
  members; once started it runs to commit exempt from the gate.  Queues
  therefore drain serially while distinct queues overlap freely.
- **Contention-triggered re-partition.**  Every DELAY verdict is
  evidence the partition has gone stale.  After ``repartition_after``
  of them, all *not-yet-started* transactions are redistributed with the
  same greedy rule, in admission order (started transactions keep their
  locks and are left alone, so re-partition is always safe).  A
  re-partition that moved anyone wakes the DELAYed requests: a move is
  the one verdict change that is neither a commit nor an abort.

Conflicts are still resolved by the admission-order grant rule
(:class:`~repro.schedulers.modern.base.DeclaredOrderScheduler`), so the
queues are purely a performance policy: serializability and deadlock
freedom do not depend on the partition being good -- or even sane.
Every decision costs ``ddtime_ms`` of CN CPU.
"""

from __future__ import annotations

import typing

from repro.core.base import Decision
from repro.schedulers.modern.base import DeclaredOrderScheduler
from repro.txn.step import AccessMode
from repro.txn.transaction import BatchTransaction


class ConflictReorderScheduler(DeclaredOrderScheduler):
    """Greedy conflict-graph partitioning into execution queues."""

    name = "CAR"

    def __init__(
        self,
        *args: typing.Any,
        num_queues: int = 4,
        repartition_after: int = 64,
        **kwargs: typing.Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        if num_queues < 1:
            raise ValueError(f"num_queues must be >= 1, got {num_queues}")
        if repartition_after < 1:
            raise ValueError(
                f"repartition_after must be >= 1, got {repartition_after}"
            )
        self.num_queues = num_queues
        self.repartition_after = repartition_after
        #: live members of each execution queue
        self._queues: typing.List[typing.Set[int]] = [
            set() for _ in range(num_queues)
        ]
        #: queue index of each live transaction
        self._queue_of: typing.Dict[int, int] = {}
        #: transactions that have begun executing (gate-exempt)
        self._started: typing.Set[int] = set()
        #: DELAY verdicts since the last re-partition
        self._stale_evidence = 0
        #: completed re-partitions
        self._repartitions = 0

    # -- greedy conflict co-location ---------------------------------------

    def _pick_queue(self, txn: BatchTransaction) -> int:
        """The queue with the most declared conflicts against ``txn``
        (ties: shortest queue, then lowest index)."""
        best, best_key = 0, None
        for index, members in enumerate(self._queues):
            conflicts = sum(
                1
                for other_id in members
                if self._live[other_id].conflicts_with(txn)
            )
            key = (-conflicts, len(members), index)
            if best_key is None or key < best_key:
                best, best_key = index, key
        return best

    def _try_admit(self, txn: BatchTransaction) -> typing.Generator:
        yield from self.control_node.consume(self.config.ddtime_ms, "cc-car")
        queue = self._pick_queue(txn)
        self._order_admit(txn)
        self._queues[queue].add(txn.txn_id)
        self._queue_of[txn.txn_id] = queue
        if self._trace.enabled:
            self._trace.emit(
                self.env.now,
                "sched.queue_assign",
                txn=txn.txn_id,
                queue=queue,
            )
        return True

    # -- serial-per-queue dispatch + admission-order granting --------------

    def _try_acquire(
        self, txn: BatchTransaction, file_id: int, mode: AccessMode
    ) -> typing.Generator:
        yield from self.control_node.consume(self.config.ddtime_ms, "cc-car")
        txn_id = txn.txn_id
        if txn_id not in self._started:
            my_order = self._order[txn_id]
            for other_id in self._queues[self._queue_of[txn_id]]:
                if other_id != txn_id and self._order[other_id] < my_order:
                    # a queue-mate is ahead of us: ordinary serial-queue
                    # waiting, not partition staleness
                    return Decision.DELAY
            self._started.add(txn_id)
        if not self.lock_table.is_compatible(file_id, mode):
            return Decision.BLOCK
        if self._has_conflict_predecessor(txn, file_id, mode):
            return self._stale()
        self._grant_lock(txn, file_id, mode)
        return Decision.GRANT

    def _stale(self) -> Decision:
        """Count a DELAY as partition-staleness evidence; re-partition
        once enough has accumulated."""
        self._stale_evidence += 1
        if self._stale_evidence >= self.repartition_after:
            self._repartition()
        return Decision.DELAY

    def _repartition(self) -> None:
        """Redistribute every not-yet-started live transaction with the
        greedy rule, in admission order.  Started transactions stay put,
        so the move never invalidates a dispatch decision already made."""
        self._stale_evidence = 0
        self._repartitions += 1
        pending = sorted(
            (t for t in self._live if t not in self._started),
            key=self._order.__getitem__,
        )
        before = {t: self._queue_of.pop(t) for t in pending}
        for txn_id, queue in before.items():
            self._queues[queue].discard(txn_id)
        moved = 0
        for txn_id in pending:
            queue = self._pick_queue(self._live[txn_id])
            self._queues[queue].add(txn_id)
            self._queue_of[txn_id] = queue
            if queue != before[txn_id]:
                moved += 1
        if moved:
            # the queue gate may have opened for a moved transaction or
            # for one that was queued behind it
            self._notify_commit(())
        if self._trace.enabled:
            self._trace.emit(
                self.env.now,
                "sched.repartition",
                live=len(self._live),
                moved=moved,
            )

    def _on_commit(self, txn: BatchTransaction) -> typing.Generator:
        yield from super()._on_commit(txn)
        queue = self._queue_of.pop(txn.txn_id, None)
        if queue is not None:
            self._queues[queue].discard(txn.txn_id)
        self._started.discard(txn.txn_id)

    def queue_snapshot(self) -> typing.List[typing.FrozenSet[int]]:
        """Current queue membership (txn ids), for tests and reports."""
        return [frozenset(members) for members in self._queues]

    def timeseries_probes(
        self,
    ) -> typing.Dict[str, typing.Dict[str, typing.Any]]:
        """Base catalogue plus queue skew and re-partition activity."""
        from repro.obs.timeseries import gauge, size_hist

        probes = super().timeseries_probes()
        probes["sched.car_queue_max"] = {
            "probe": gauge(
                lambda: max(len(members) for members in self._queues)
            ),
            "unit": "txn",
            "hist": size_hist(),
        }
        probes["sched.car_started"] = {
            "probe": gauge(lambda: len(self._started)),
            "unit": "txn",
            "hist": size_hist(),
        }
        probes["sched.car_repartitions.cum"] = {
            "probe": gauge(lambda: self._repartitions),
            "unit": "sweeps",
        }
        return probes
