"""OPT: optimistic locking (Kung & Robinson, ref. [11]).

Transactions execute without any locks and are certified at commit by
backward validation: T fails when some transaction that committed during
T's lifetime wrote a file T read or wrote.  A failed transaction is
aborted and restarted from scratch -- the only scheduler in the study with
rollback, and the reason it saturates resources under contention
(Section 5.1.3, observation #2).

Table 1 gives no CPU cost for validation, so it is free on the CN by
default (``opt_validate_cost_ms`` overrides for ablations).
"""

from __future__ import annotations

import collections
import typing

from repro.core.base import Decision, Scheduler
from repro.txn.step import AccessMode
from repro.txn.transaction import BatchTransaction


class _CommitRecord(typing.NamedTuple):
    commit_time: float
    write_set: typing.FrozenSet[int]


class OPTScheduler(Scheduler):
    """Optimistic concurrency control with backward validation."""

    name = "OPT"

    def __init__(
        self,
        *args: typing.Any,
        opt_validate_cost_ms: float = 0.0,
        **kwargs: typing.Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.opt_validate_cost_ms = opt_validate_cost_ms
        #: commit records in nondecreasing commit-time order; pruning
        #: pops from the left, validation scans the young suffix from
        #: the right
        self._commit_log: typing.Deque[_CommitRecord] = collections.deque()
        #: insertion order == admission order == nondecreasing time, so
        #: the first entry is always the oldest active start time
        self._start_times: typing.Dict[int, float] = {}

    def _try_admit(self, txn: BatchTransaction) -> typing.Generator:
        self._start_times[txn.txn_id] = self.env.now
        return True
        yield  # pragma: no cover - generator marker

    def _try_acquire(
        self, txn: BatchTransaction, file_id: int, mode: AccessMode
    ) -> typing.Generator:
        return Decision.GRANT
        yield  # pragma: no cover - generator marker

    def acquire(self, txn: BatchTransaction, file_id: int) -> typing.Generator:
        """No locks: every access proceeds immediately."""
        self.stats.grants.increment()
        return
        yield  # pragma: no cover - generator marker

    def validate_at_commit(self, txn: BatchTransaction) -> bool:
        """Backward validation against transactions committed meanwhile."""
        start = self._start_times.get(txn.txn_id)
        if start is None:
            raise RuntimeError(f"T{txn.txn_id} was never admitted")
        touched = txn.read_set | txn.write_set
        # the log is commit-time ordered: walk the suffix newer than
        # ``start`` and stop at the first record at or before it
        ok = True
        for record in reversed(self._commit_log):
            if record.commit_time <= start:
                break
            if record.write_set & touched:
                ok = False
                break
        if self._trace.enabled:
            self._trace.emit(
                self.env.now, "sched.opt_validation", txn=txn.txn_id, ok=ok
            )
        return ok

    def _on_commit(self, txn: BatchTransaction) -> typing.Generator:
        if self.opt_validate_cost_ms:
            yield from self.control_node.consume(
                self.opt_validate_cost_ms, "cc-opt"
            )
        self._commit_log.append(
            _CommitRecord(self.env.now, frozenset(txn.write_set))
        )
        self._start_times.pop(txn.txn_id, None)
        self._prune_commit_log()
        return

    def _on_abort(self, txn: BatchTransaction) -> typing.Generator:
        self._start_times.pop(txn.txn_id, None)
        self._prune_commit_log()
        return
        yield  # pragma: no cover - generator marker

    def timeseries_probes(
        self,
    ) -> typing.Dict[str, typing.Dict[str, typing.Any]]:
        """Base catalogue plus the backward-validation log size."""
        from repro.obs.timeseries import gauge, size_hist

        probes = super().timeseries_probes()
        probes["sched.commit_log"] = {
            "probe": gauge(lambda: len(self._commit_log)),
            "unit": "records",
            "hist": size_hist(),
        }
        return probes

    def _prune_commit_log(self) -> None:
        """Drop records no active transaction could conflict with."""
        log = self._commit_log
        if not self._start_times:
            log.clear()
            return
        oldest = next(iter(self._start_times.values()))
        while log and log[0].commit_time <= oldest:
            log.popleft()
