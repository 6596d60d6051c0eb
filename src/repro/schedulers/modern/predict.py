"""Conflict-prediction admission scheduling (arXiv:2409.01675).

The third modern family learns where contention lives and keeps likely
losers out of the mix: an online model estimates, per file, how likely
an access to that file is to run into a conflict, and admission defers
transactions whose declared set looks too hot right now.  This exploits
exactly the access declarations the paper's workload model provides (and
whose accuracy exp3's Gaussian-error model perturbs).

Mechanics:

- **Per-file learning.**  Each file keeps two counters: transactions
  that declared it and completed, and transactions that suffered at
  least one scheduler wait (block or delay) on it.  The conflict
  probability estimate is Laplace-smoothed::

      p(f) = (conflicts(f) + 1) / (completions(f) + 2)

  Waits are counted at most once per (transaction, file), so a long
  badly-placed wait that re-evaluates many times is one observation,
  not many.
- **Pairwise likelihood at admission.**  For each declared file that
  some live transaction declared conflictingly, the newcomer risks an
  independent conflict with probability ``p(f)``; the overall predicted
  conflict likelihood is ``1 - prod(1 - p(f))`` over those files.  Above
  ``threshold``, admission is deferred until a commit changes the
  picture -- at most ``max_defers`` times, after which the transaction
  is admitted regardless (starvation cap).
- **Execution.**  Admitted transactions run under the admission-order
  grant rule (:class:`~repro.schedulers.modern.base.DeclaredOrderScheduler`),
  so the predictor only shapes the mix; serializability and deadlock
  freedom never depend on its accuracy.

The model is pure counting -- no wall clock, no randomness -- so runs
remain byte-deterministic.  Every decision costs ``ddtime_ms`` of CN
CPU.
"""

from __future__ import annotations

import typing

from repro.core.base import Decision
from repro.schedulers.modern.base import DeclaredOrderScheduler
from repro.txn.step import AccessMode
from repro.txn.transaction import BatchTransaction


class ConflictPredictScheduler(DeclaredOrderScheduler):
    """Admission control driven by learned per-file conflict rates."""

    name = "PRED"

    def __init__(
        self,
        *args: typing.Any,
        threshold: float = 0.5,
        max_defers: int = 3,
        **kwargs: typing.Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        if not 0.0 < threshold <= 1.0:
            raise ValueError(
                f"threshold must be in (0, 1], got {threshold}"
            )
        if max_defers < 0:
            raise ValueError(f"max_defers must be >= 0, got {max_defers}")
        self.threshold = threshold
        self.max_defers = max_defers
        #: file -> completed transactions that declared it
        self._completions: typing.Dict[int, int] = {}
        #: file -> transactions that waited on it at least once
        self._conflicts: typing.Dict[int, int] = {}
        #: files already counted as conflicted, per live transaction
        self._counted: typing.Dict[int, typing.Set[int]] = {}
        #: deferrals suffered so far by each waiting transaction
        self._defers: typing.Dict[int, int] = {}
        #: total deferrals issued (for the probe catalogue)
        self._defers_total = 0

    # -- the model ---------------------------------------------------------

    def conflict_probability(self, file_id: int) -> float:
        """Laplace-smoothed estimate that an access to ``file_id`` waits."""
        conflicts = self._conflicts.get(file_id, 0)
        completions = self._completions.get(file_id, 0)
        return (conflicts + 1) / (completions + 2)

    def conflict_score(self, txn: BatchTransaction) -> float:
        """Predicted likelihood that ``txn`` conflicts with the live mix:
        ``1 - prod(1 - p(f))`` over its currently-contested files."""
        survival = 1.0
        for file_id in self._declared_conflict_files(txn):
            survival *= 1.0 - self.conflict_probability(file_id)
        return 1.0 - survival

    def _record_wait(self, txn: BatchTransaction, file_id: int) -> None:
        counted = self._counted.setdefault(txn.txn_id, set())
        if file_id not in counted:
            counted.add(file_id)
            self._conflicts[file_id] = self._conflicts.get(file_id, 0) + 1

    # -- admission: defer likely losers ------------------------------------

    def _try_admit(self, txn: BatchTransaction) -> typing.Generator:
        yield from self.control_node.consume(self.config.ddtime_ms, "cc-pred")
        score = self.conflict_score(txn)
        defers = self._defers.get(txn.txn_id, 0)
        admitted = score <= self.threshold or defers >= self.max_defers
        if self._trace.enabled:
            self._trace.emit(
                self.env.now,
                "sched.conflict_pred",
                txn=txn.txn_id,
                score=round(score, 6),
                admitted=admitted,
            )
        if not admitted:
            self._defers[txn.txn_id] = defers + 1
            self._defers_total += 1
            return False
        self._defers.pop(txn.txn_id, None)
        self._order_admit(txn)
        return True

    # -- execution: admission-order granting, with learning ----------------

    def _try_acquire(
        self, txn: BatchTransaction, file_id: int, mode: AccessMode
    ) -> typing.Generator:
        yield from self.control_node.consume(self.config.ddtime_ms, "cc-pred")
        if not self.lock_table.is_compatible(file_id, mode):
            self._record_wait(txn, file_id)
            return Decision.BLOCK
        if self._has_conflict_predecessor(txn, file_id, mode):
            self._record_wait(txn, file_id)
            return Decision.DELAY
        self._grant_lock(txn, file_id, mode)
        return Decision.GRANT

    def _on_commit(self, txn: BatchTransaction) -> typing.Generator:
        yield from super()._on_commit(txn)
        for file_id in txn.files:
            self._completions[file_id] = (
                self._completions.get(file_id, 0) + 1
            )
        self._counted.pop(txn.txn_id, None)

    def timeseries_probes(
        self,
    ) -> typing.Dict[str, typing.Dict[str, typing.Any]]:
        """Base catalogue plus model size and deferral pressure."""
        from repro.obs.timeseries import gauge, size_hist

        probes = super().timeseries_probes()
        probes["sched.pred_files"] = {
            "probe": gauge(lambda: len(self._completions)),
            "unit": "files",
            "hist": size_hist(),
        }
        probes["sched.pred_defers.cum"] = {
            "probe": gauge(lambda: self._defers_total),
            "unit": "txn",
        }
        return probes
