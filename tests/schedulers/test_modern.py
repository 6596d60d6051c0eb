"""Behavioural and end-to-end tests for the modern scheduler arena.

Mirrors tests/core/test_schedulers.py: each policy's characteristic
decisions are exercised through the real lifecycle (admission, lock
requests, commit) with deterministic mini-workloads, then every family
is put through full audited simulations at each declustering degree and
through the pool-size determinism check.
"""

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SerializabilityAuditor
from repro.core.base import Decision
from repro.des import Environment
from repro.machine import ControlNode, MachineConfig
from repro.runner import ParallelRunner, RunSpec, WorkloadSpec
from repro.schedulers import (
    ConflictPredictScheduler,
    ConflictReorderScheduler,
    DGCCScheduler,
)
from repro.sim import Simulation, run_simulation
from repro.txn import (
    AccessMode,
    BatchTransaction,
    Step,
    experiment1_workload,
    experiment2_workload,
)

MODERN = ("DGCC", "CAR", "PRED")


def make_txn(txn_id, spec, arrival=0.0):
    steps = [
        Step(f, AccessMode.EXCLUSIVE if op == "w" else AccessMode.SHARED, c)
        for f, op, c in spec
    ]
    return BatchTransaction(txn_id, steps, arrival)


class Harness:
    """Drives scheduler lifecycles as simulation processes."""

    def __init__(self, scheduler_cls, config=None, **scheduler_kwargs):
        self.env = Environment()
        self.config = config or MachineConfig(retry_delay_ms=50.0)
        self.cn = ControlNode(self.env, self.config)
        self.scheduler = scheduler_cls(
            self.env, self.config, self.cn, **scheduler_kwargs
        )
        self.trace = []

    def lifecycle(self, txn, hold_ms=100.0):
        """Admit, acquire each file at first need, hold, then commit."""

        def proc():
            yield from self.scheduler.admit(txn)
            self.trace.append((self.env.now, "admitted", txn.txn_id))
            for file_id in txn.files:
                yield from self.scheduler.acquire(txn, file_id)
                self.trace.append((self.env.now, "locked", txn.txn_id, file_id))
            yield self.env.timeout(hold_ms)
            yield from self.scheduler.commit(txn)
            self.trace.append((self.env.now, "committed", txn.txn_id))

        return self.env.process(proc(), name=f"txn-{txn.txn_id}")

    def admit_only(self, txn):
        """Admit and stay live forever (for partition inspection)."""

        def proc():
            yield from self.scheduler.admit(txn)
            self.trace.append((self.env.now, "admitted", txn.txn_id))

        return self.env.process(proc(), name=f"admit-{txn.txn_id}")

    def run(self, until=None):
        self.env.run(until=until)

    def events(self, kind):
        return [t for t in self.trace if t[1] == kind]


class TestDGCC:
    def test_full_batch_seals_until_drained(self):
        h = Harness(DGCCScheduler, batch_size=2)
        h.lifecycle(make_txn(1, [(0, "w", 1.0)]))
        h.lifecycle(make_txn(2, [(1, "w", 1.0)]))
        h.lifecycle(make_txn(3, [(2, "w", 1.0)]))
        h.run()
        commits = dict((t[2], t[0]) for t in h.events("committed"))
        assert set(commits) == {1, 2, 3}
        # txn 3 found the batch sealed: admitted only after 1 and 2 left
        admit3 = next(t[0] for t in h.events("admitted") if t[2] == 3)
        assert admit3 >= max(commits[1], commits[2])
        # two epochs drained: {1, 2} and then {3}
        assert h.scheduler._epoch == 2

    def test_unfilled_batch_keeps_admitting(self):
        h = Harness(DGCCScheduler, batch_size=8)
        h.lifecycle(make_txn(1, [(0, "w", 1.0)]), hold_ms=200.0)
        h.lifecycle(make_txn(2, [(1, "w", 1.0)]), hold_ms=200.0)
        h.run(until=50.0)
        # both admitted immediately: no quorum wait at light load
        assert {t[2] for t in h.events("admitted")} == {1, 2}

    def test_conflicting_writes_follow_admission_order(self):
        h = Harness(DGCCScheduler)
        h.lifecycle(make_txn(1, [(0, "w", 1.0)]))
        h.lifecycle(make_txn(2, [(0, "w", 1.0)]))
        h.run()
        commit1 = next(t[0] for t in h.events("committed") if t[2] == 1)
        locked2 = next(t[0] for t in h.events("locked") if t[2] == 2)
        assert locked2 >= commit1  # the graph successor waited

    def test_dependency_components_partition_the_batch(self):
        h = Harness(DGCCScheduler)
        h.admit_only(make_txn(1, [(0, "w", 1.0), (1, "r", 1.0)]))
        h.admit_only(make_txn(2, [(1, "w", 1.0), (2, "w", 1.0)]))
        h.admit_only(make_txn(3, [(5, "w", 1.0)]))
        h.run()
        components = h.scheduler.dependency_components()
        assert components == [frozenset({1, 2}), frozenset({3})]

    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            Harness(DGCCScheduler, batch_size=0)

    def test_rejected_admissions_wake_only_at_epoch_drains(self):
        class DrainLog(DGCCScheduler):
            """Records each admission verdict and, at each drain, the
            epoch pool and the entries the drain woke."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.verdicts = []  # (txn id, admitted)
                self.drains = []  # (pool priorities, woken priorities)

            def _try_admit(self, txn):
                admitted = yield from super()._try_admit(txn)
                self.verdicts.append((txn.txn_id, admitted))
                return admitted

            def _on_commit(self, txn):
                pool = list(self._epoch_waiters)
                yield from super()._on_commit(txn)
                if not self._live:  # this commit drained the epoch
                    woken = [e for e in pool if e not in self._epoch_waiters]
                    self.drains.append(
                        ([p for p, _ in pool], [p for p, _ in woken])
                    )

        h = Harness(DrainLog, batch_size=2)

        def arrive(txn_id, at, hold_ms):
            def proc():
                yield h.env.timeout(at)
                yield h.lifecycle(
                    make_txn(txn_id, [(txn_id, "w", 1.0)], arrival=at),
                    hold_ms=hold_ms,
                )

            h.env.process(proc())

        for txn_id in range(1, 8):
            # commits spread inside epochs
            arrive(txn_id, 0.1 * txn_id, hold_ms=100.0 * txn_id)
        # a newcomer whose admission slice straddles the first drain
        # (at 209 ms): it takes a seat, so one woken waiter parks again
        arrive(8, 208.5, hold_ms=50.0)
        h.run()
        scheduler = h.scheduler
        assert len(h.events("committed")) == 8
        # {1, 2}, {8, 3}, {4, 5}, {6, 7}
        assert scheduler._epoch == 4
        for pool, woken in scheduler.drains:
            # a drain wakes the next batch only, oldest first
            assert len(woken) == min(len(pool), scheduler.batch_size)
            assert sorted(woken) == sorted(pool)[: len(woken)]
        assert [len(pool) for pool, _ in scheduler.drains] == [5, 4, 2, 0]
        # a woken waiter is rejected again only when a newcomer (a first
        # attempt) took its seat in between: 3..7 found the first batch
        # sealed, and 4 once more behind txn 8
        seen = set()
        #: rejected txn id -> whether a newcomer was admitted since
        newcomer_since = {}
        for txn_id, admitted in scheduler.verdicts:
            if not admitted:
                assert newcomer_since.get(txn_id, True), (
                    f"txn {txn_id} rejected twice with no newcomer between"
                )
                newcomer_since[txn_id] = False
            elif txn_id not in seen:
                newcomer_since = dict.fromkeys(newcomer_since, True)
            seen.add(txn_id)
        assert scheduler.stats.admission_rejections.total == 6


class TestCAR:
    def test_conflicts_co_locate_and_independents_spread(self):
        h = Harness(ConflictReorderScheduler, num_queues=2)
        h.admit_only(make_txn(1, [(0, "w", 1.0)]))
        h.admit_only(make_txn(2, [(0, "w", 1.0)]))
        h.admit_only(make_txn(3, [(5, "w", 1.0)]))
        h.run()
        assert h.scheduler.queue_snapshot() == [
            frozenset({1, 2}),
            frozenset({3}),
        ]

    def test_queue_mates_run_serially_in_admission_order(self):
        h = Harness(ConflictReorderScheduler, num_queues=2)
        h.lifecycle(make_txn(1, [(0, "w", 1.0)]))
        h.lifecycle(make_txn(2, [(0, "w", 1.0)]))
        h.run()
        commit1 = next(t[0] for t in h.events("committed") if t[2] == 1)
        locked2 = next(t[0] for t in h.events("locked") if t[2] == 2)
        assert locked2 >= commit1

    def test_conflict_predecessor_delay_triggers_repartition(self):
        h = Harness(
            ConflictReorderScheduler, num_queues=2, repartition_after=1
        )
        scheduler = h.scheduler

        def t1():  # queue 0; holds file 0 briefly
            txn = make_txn(1, [(0, "w", 1.0)])
            yield from scheduler.admit(txn)
            yield from scheduler.acquire(txn, 0)
            yield h.env.timeout(100.0)
            yield from scheduler.commit(txn)
            h.trace.append((h.env.now, "committed", 1))

        def t2():  # queue 1; declares file 1 but acquires it late
            txn = make_txn(2, [(1, "w", 1.0)])
            yield from scheduler.admit(txn)
            yield h.env.timeout(300.0)
            yield from scheduler.acquire(txn, 1)
            yield h.env.timeout(50.0)
            yield from scheduler.commit(txn)
            h.trace.append((h.env.now, "committed", 2))

        def t3():  # queue 0 behind t1; then hits t2's declaration on file 1
            txn = make_txn(3, [(0, "w", 1.0), (1, "w", 1.0)])
            yield from scheduler.admit(txn)
            yield from scheduler.acquire(txn, 0)
            yield from scheduler.acquire(txn, 1)
            yield from scheduler.commit(txn)
            h.trace.append((h.env.now, "committed", 3))

        for proc in (t1, t2, t3):
            h.env.process(proc(), name=proc.__name__)
        h.run()
        assert {t[2] for t in h.events("committed")} == {1, 2, 3}
        # t3's wait on t2's declared-but-unlocked file was staleness
        # evidence, and the threshold of one forced a re-partition
        assert scheduler._repartitions >= 1
        commit2 = next(t[0] for t in h.events("committed") if t[2] == 2)
        commit3 = next(t[0] for t in h.events("committed") if t[2] == 3)
        assert commit3 >= commit2  # admission order won on file 1

    def test_repartition_that_moves_a_waiter_wakes_it(self):
        h = Harness(ConflictReorderScheduler, num_queues=2)
        scheduler = h.scheduler
        env = h.env

        def ta():  # queue 0; declares file 9 but starts late
            txn = make_txn(1, [(9, "w", 1.0)])
            yield from scheduler.admit(txn)
            yield env.timeout(5_000.0)
            yield from scheduler.acquire(txn, 9)
            yield from scheduler.commit(txn)
            h.trace.append((env.now, "committed", 1))

        def tb():  # queue 1 (shorter); runs at once, commits at ~1 s
            txn = make_txn(2, [(8, "w", 1.0)])
            yield from scheduler.admit(txn)
            yield from scheduler.acquire(txn, 8)
            yield env.timeout(1_000.0)
            yield from scheduler.commit(txn)
            h.trace.append((env.now, "committed", 2))

        def tc():  # ties into queue 0, behind txn 1: a queue-gate DELAY
            txn = make_txn(3, [(7, "w", 1.0)])
            yield from scheduler.admit(txn)
            yield from scheduler.acquire(txn, 7)
            h.trace.append((env.now, "locked", 3, 7))
            yield from scheduler.commit(txn)

        def repartition():
            # stands in for the staleness threshold: by now txn 2 has
            # left queue 1, so the greedy rule moves txn 3 there
            yield env.timeout(2_000.0)
            assert scheduler.queue_snapshot() == [
                frozenset({1, 3}), frozenset(),
            ]
            scheduler._repartition()
            assert scheduler.queue_snapshot() == [
                frozenset({1}), frozenset({3}),
            ]

        for proc in (ta, tb, tc, repartition):
            env.process(proc(), name=proc.__name__)
        h.run()
        locked3 = next(t[0] for t in h.events("locked") if t[2] == 3)
        commit1 = next(t[0] for t in h.events("committed") if t[2] == 1)
        commit2 = next(t[0] for t in h.events("committed") if t[2] == 2)
        # txn 2's commit woke txn 3 to no avail (txn 1 still ahead of it)
        assert locked3 > commit2
        # the move woke it at once, long before the next commit
        assert 2_000.0 <= locked3 < 2_010.0 < commit1
        # one DELAY on admission, one after txn 2's commit, then GRANT
        assert scheduler.stats.delays.total == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Harness(ConflictReorderScheduler, num_queues=0)
        with pytest.raises(ValueError):
            Harness(ConflictReorderScheduler, repartition_after=0)


class TestPRED:
    def test_uncontested_admission_is_immediate(self):
        h = Harness(ConflictPredictScheduler, threshold=0.01)
        h.lifecycle(make_txn(1, [(0, "w", 1.0)]))
        h.run()
        # nobody else declared file 0: score 0, no deferral
        assert h.scheduler._defers_total == 0
        assert len(h.events("committed")) == 1

    def test_hot_declaration_defers_until_commit(self):
        h = Harness(ConflictPredictScheduler, threshold=0.4, max_defers=5)
        h.lifecycle(make_txn(1, [(0, "w", 1.0)]), hold_ms=200.0)
        h.lifecycle(make_txn(2, [(0, "w", 1.0)]))
        h.run()
        # fresh model: p(file 0) = 1/2 > 0.4, so txn 2 waited out txn 1
        assert h.scheduler._defers_total >= 1
        commit1 = next(t[0] for t in h.events("committed") if t[2] == 1)
        admit2 = next(t[0] for t in h.events("admitted") if t[2] == 2)
        assert admit2 >= commit1

    def test_starvation_cap_admits_regardless(self):
        h = Harness(ConflictPredictScheduler, threshold=0.01, max_defers=0)
        h.lifecycle(make_txn(1, [(0, "w", 1.0)]), hold_ms=500.0)
        h.lifecycle(make_txn(2, [(0, "w", 1.0)]))
        h.run()
        commit1 = next(t[0] for t in h.events("committed") if t[2] == 1)
        admit2 = next(t[0] for t in h.events("admitted") if t[2] == 2)
        assert admit2 < commit1  # admitted into the hot mix anyway
        assert len(h.events("committed")) == 2

    def test_completions_lower_the_estimate(self):
        h = Harness(ConflictPredictScheduler)
        assert h.scheduler.conflict_probability(0) == pytest.approx(1 / 2)
        h.lifecycle(make_txn(1, [(0, "w", 1.0)]))
        h.run()
        assert h.scheduler.conflict_probability(0) == pytest.approx(1 / 3)

    def test_waits_count_once_per_file(self):
        h = Harness(ConflictPredictScheduler, threshold=1.0)
        scheduler = h.scheduler

        def t1():  # declares file 0 first but takes it late
            txn = make_txn(1, [(0, "w", 1.0)])
            yield from scheduler.admit(txn)
            yield h.env.timeout(300.0)
            yield from scheduler.acquire(txn, 0)
            yield from scheduler.commit(txn)

        h.env.process(t1(), name="t1")
        h.lifecycle(make_txn(2, [(0, "w", 1.0)]))
        h.lifecycle(make_txn(3, [(5, "w", 1.0)]), hold_ms=50.0)
        h.run()
        # txn 3's commit woke txn 2, which was DELAYed behind txn 1's
        # declaration of file 0 again; the model saw one conflict
        # observation, not two
        assert scheduler.stats.delays.total == 2
        assert scheduler._conflicts.get(0) == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Harness(ConflictPredictScheduler, threshold=0.0)
        with pytest.raises(ValueError):
            Harness(ConflictPredictScheduler, threshold=1.5)
        with pytest.raises(ValueError):
            Harness(ConflictPredictScheduler, max_defers=-1)


# -- full-simulation guarantees ----------------------------------------------


def quick(scheduler, rate=0.6, dd=1, num_files=16, seed=7,
          duration=150_000, **kwargs):
    return run_simulation(
        scheduler,
        experiment1_workload(rate, num_files=num_files),
        MachineConfig(dd=dd, num_files=num_files),
        seed=seed,
        duration_ms=duration,
        warmup_ms=0.0,
        **kwargs,
    )


class TestSerializability:
    @pytest.mark.parametrize("scheduler", MODERN)
    @pytest.mark.parametrize("dd", [1, 2, 4, 8])
    def test_audit_clean_at_every_dd(self, scheduler, dd):
        auditor = SerializabilityAuditor()
        result = quick(scheduler, dd=dd, auditor=auditor)
        assert result.completed > 5, f"{scheduler} stalled at DD={dd}"
        assert auditor.committed_count > 5
        assert auditor.is_serializable(), auditor.find_cycle()

    @pytest.mark.parametrize(
        "scheduler", ["DGCC(B=4)", "CAR(Q=2)", "PRED(T=0.25)"]
    )
    def test_parameterised_variants_audit_clean(self, scheduler):
        auditor = SerializabilityAuditor()
        result = quick(scheduler, dd=2, auditor=auditor)
        assert result.completed > 5
        assert auditor.is_serializable(), auditor.find_cycle()


class TestDeterminism:
    def test_pool_sizes_yield_byte_identical_results(self):
        specs = [
            RunSpec(
                scheduler=scheduler,
                workload=WorkloadSpec.make("exp1", 0.8, num_files=16),
                config=MachineConfig(dd=2),
                seed=3,
                duration_ms=20_000.0,
                warmup_ms=0.0,
            )
            for scheduler in MODERN + ("DGCC(B=4)", "CAR(Q=2)", "PRED(T=0.25)")
        ]
        serial = ParallelRunner(pool_size=1, progress=None).run_batch(
            specs, label="modern-pool1"
        )
        pooled = ParallelRunner(pool_size=3, progress=None).run_batch(
            specs, label="modern-pool3"
        )
        a = [json.dumps(r.to_dict(), sort_keys=True) for r in serial]
        b = [json.dumps(r.to_dict(), sort_keys=True) for r in pooled]
        assert a == b


# -- exact wake-ups ------------------------------------------------------------


class WakeOracle:
    """Mixin checking the exact-wake-up invariant as a run goes.

    After every grant, admission and CAR re-partition it re-checks each
    still-parked DELAYed request: the condition that delayed it must
    still hold.  A grant or an admission that let a parked request
    through without waking it would be a lost wake-up.

    DGCC's epoch pool is checked the same way after every admission
    verdict and every commit: a rejected admission may stay parked only
    while the batch is sealed or a woken admission is still pending
    (its verdict will either seal the batch or empty the pool's head).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: wake event -> the (txn, file, mode) request parked on it
        self.parked = {}
        self.checked = 0
        self._delayed = None
        #: txn id -> wake event of its parked admission, until a verdict
        self._admitting = {}
        self._rejected = None
        self.epoch_checked = 0

    def _try_acquire(self, txn, file_id, mode):
        decision = yield from super()._try_acquire(txn, file_id, mode)
        self._delayed = (
            (txn, file_id, mode) if decision is Decision.DELAY else None
        )
        return decision

    def _try_admit(self, txn):
        admitted = yield from super()._try_admit(txn)
        self._admitting.pop(txn.txn_id, None)  # its verdict is in
        self._rejected = None if admitted else txn
        self._check_epoch_pool()
        return admitted

    def _wait_on(self, wake, pool, fallback, priority):
        if pool is self._commit_waiters and self._delayed is not None:
            self.parked[wake] = self._delayed
            self._delayed = None
        if pool is self._admission_waiters() and self._rejected is not None:
            self._admitting[self._rejected.txn_id] = wake
            self._rejected = None
        return super()._wait_on(wake, pool, fallback, priority)

    def _on_commit(self, txn):
        yield from super()._on_commit(txn)
        self._check_epoch_pool()

    def _check_epoch_pool(self):
        pool = getattr(self, "_epoch_waiters", None)  # DGCC only
        if not pool:
            return
        self.epoch_checked += 1
        pending = any(wake.triggered for wake in self._admitting.values())
        assert self._sealed or pending, (
            f"{len(pool)} admission(s) stranded on the epoch pool at "
            f"t={self.env.now}: the batch is open and no woken admission "
            f"is pending"
        )

    def _still_delayed(self, txn, file_id, mode):
        if self._has_conflict_predecessor(txn, file_id, mode):
            return True
        queues = getattr(self, "_queues", None)  # CAR's queue gate
        if queues is None or txn.txn_id in self._started:
            return False
        mine = self._order[txn.txn_id]
        return any(
            self._order[other] < mine
            for other in queues[self._queue_of[txn.txn_id]]
            if other != txn.txn_id
        )

    def _check(self):
        for _priority, wake in self._commit_waiters:
            request = self.parked.get(wake)
            if request is None or wake.triggered:
                continue
            self.checked += 1
            assert self._still_delayed(*request), (
                f"parked request {request[0].txn_id}/{request[1]} became "
                f"grantable at t={self.env.now} with no wake-up"
            )

    def _grant_lock(self, txn, file_id, mode):
        super()._grant_lock(txn, file_id, mode)
        self._check()

    def _order_admit(self, txn):
        order = super()._order_admit(txn)
        self._check()
        return order

    def _repartition(self):
        super()._repartition()
        self._check()


#: the admission-order schedulers (and three variants) under the oracle
CHECKED = {
    name: (type(f"Checked{cls.__name__}", (WakeOracle, cls), {}), kwargs)
    for name, cls, kwargs in (
        ("DGCC", DGCCScheduler, {}),
        ("CAR", ConflictReorderScheduler, {}),
        ("PRED", ConflictPredictScheduler, {}),
        ("DGCC(B=4)", DGCCScheduler, {"batch_size": 4}),
        ("CAR(Q=2)", ConflictReorderScheduler, {"num_queues": 2}),
        # re-partitions are rare at the default threshold
        (
            "CAR(Q=2,R=4)", ConflictReorderScheduler,
            {"num_queues": 2, "repartition_after": 4},
        ),
    )
}


def checked_run(scheduler, rate, dd, seed, duration=40_000.0):
    """One audited exp1 run under the wake-up oracle."""
    cls, kwargs = CHECKED[scheduler]
    auditor = SerializabilityAuditor()
    simulation = Simulation(
        MachineConfig(dd=dd, num_files=16),
        experiment1_workload(rate, num_files=16),
        seed=seed,
        duration_ms=duration,
        auditor=auditor,
        scheduler_factory=lambda env, config, cn: cls(
            env, config, cn, **kwargs
        ),
    )
    return simulation.run(), auditor, simulation.scheduler


class TestExactWakeups:
    @pytest.mark.parametrize("scheduler", MODERN)
    @pytest.mark.parametrize("dd", [1, 2])
    def test_results_invariant_to_retry_delay(self, scheduler, dd):
        # no polling remains: the fallback constant, even switched off
        # (0), cannot change a single byte of the result
        results = {
            json.dumps(run_simulation(
                scheduler,
                experiment1_workload(0.8, num_files=16),
                MachineConfig(dd=dd, num_files=16, retry_delay_ms=delay),
                seed=3,
                duration_ms=60_000.0,
            ).to_dict(), sort_keys=True)
            for delay in (0.0, 25.0, 100.0, 400.0)
        }
        assert len(results) == 1

    @pytest.mark.parametrize("scheduler", MODERN)
    def test_oracle_sees_parked_requests(self, scheduler):
        # the sweep below is only as strong as its oracle: on a
        # contended cell it must have had parked requests to re-check
        result, auditor, oracle = checked_run(scheduler, 1.2, 1, seed=3)
        assert oracle.checked > 0
        assert result.completed > 0
        assert auditor.is_serializable(), auditor.find_cycle()

    @pytest.mark.parametrize("scheduler", ["DGCC", "DGCC(B=4)"])
    def test_oracle_sees_the_epoch_pool(self, scheduler):
        # a drain that left the pool's head parked with the batch open
        # would strand it: on a contended cell the oracle must have
        # re-checked a non-empty pool
        _, _, oracle = checked_run(scheduler, 1.2, 1, seed=3)
        assert oracle.epoch_checked > 0

    def test_oracle_sees_repartitions(self):
        # a re-partition that moves a parked request must wake it; this
        # cell re-partitions often enough for the oracle to notice one
        # that did not
        _, _, oracle = checked_run(
            "CAR(Q=2,R=4)", 0.8, 2, seed=3, duration=100_000.0
        )
        assert oracle._repartitions > 0

    @settings(max_examples=15, deadline=None)
    @given(
        scheduler=st.sampled_from(sorted(CHECKED)),
        seed=st.integers(min_value=0, max_value=10_000),
        rate=st.sampled_from([0.4, 0.8, 1.2]),
        dd=st.sampled_from([1, 2, 4]),
    )
    def test_sweep_commits_serializably_with_no_lost_wakeup(
        self, scheduler, seed, rate, dd
    ):
        result, auditor, _ = checked_run(scheduler, rate, dd, seed)
        assert result.completed > 0, f"{scheduler} committed nothing"
        assert auditor.is_serializable(), auditor.find_cycle()


# -- the paper's schedulers keep the fallback, untouched ----------------------

GOLDEN = pathlib.Path(__file__).with_name("paper_golden.json")
PAPER = ("NODC", "ASL", "GOW", "LOW", "LOW-LB", "C2PL", "OPT", "2PL")
#: (workload, rate, DD, retry_delay_ms): DELAY-heavy cells on both
#: workloads, at two fallback delays so the timer path is pinned too;
#: the DD=4 and DD=8 cells pin the DPN round-robin, where integer-ms
#: costs make quantum ends tie with submissions and CN slices
GOLDEN_CELLS = (
    ("exp1", 0.8, 1, 25.0),
    ("exp1", 0.8, 1, 100.0),
    ("exp2", 1.2, 2, 100.0),
    ("exp1", 0.8, 4, 100.0),
    ("exp2", 1.2, 8, 100.0),
)


def rounded(value):
    """Floats to 9 significant digits (summation order may differ in the
    last bits across Python versions); everything else as is."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {key: rounded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [rounded(item) for item in value]
    return value


def golden_result(scheduler, workload, rate, dd, retry_delay_ms, mpl=None):
    if workload == "exp1":
        config = MachineConfig(
            dd=dd, num_files=16, retry_delay_ms=retry_delay_ms, mpl=mpl
        )
        spec = experiment1_workload(rate, num_files=16)
    else:
        config = MachineConfig(dd=dd, retry_delay_ms=retry_delay_ms, mpl=mpl)
        spec = experiment2_workload(rate)
    result = run_simulation(
        scheduler, spec, config, seed=3,
        duration_ms=60_000.0, warmup_ms=10_000.0,
    )
    return rounded(json.loads(json.dumps(result.to_dict())))


def golden_key(scheduler, cell):
    return "|".join([scheduler, *map(str, cell)])


class TestPaperSchedulersUnchanged:
    """Exact wake-ups are for the admission-order family only: the paper
    schedulers' results are pinned to ``paper_golden.json``, recorded
    before the change.  Re-record it (run this file as a script) only
    for a deliberate change to a paper scheduler's model."""

    @pytest.mark.parametrize("scheduler", PAPER)
    def test_results_match_the_recorded_golden(self, scheduler):
        golden = json.loads(GOLDEN.read_text())
        for cell in GOLDEN_CELLS:
            key = golden_key(scheduler, cell)
            assert golden_result(scheduler, *cell) == golden[key], key


# -- the rest of the roster, pinned the same way ------------------------------

ROSTER_GOLDEN = pathlib.Path(__file__).with_name("roster_golden.json")
#: the registered names ``PAPER`` leaves out: C2PL+M and the
#: admission-order family, whose DELAY herds the wake path carries
ROSTER = ("C2PL+M", "CAR", "DGCC", "PRED")
#: the paper cells, plus one shaped like perfbench's ``delay-storm``
#: (exp1 at 0.5 TPS, DD = 1, MPL = 8: a closed loop of parked requests)
ROSTER_CELLS = GOLDEN_CELLS + (("exp1", 0.5, 1, 100.0, 8),)


class TestRosterUnchanged:
    """C2PL+M, CAR, DGCC and PRED pinned to ``roster_golden.json``, as
    the paper schedulers are to ``paper_golden.json``.  Re-record it
    (run this file as a script) only for a deliberate model change."""

    @pytest.mark.parametrize("scheduler", ROSTER)
    def test_results_match_the_recorded_golden(self, scheduler):
        golden = json.loads(ROSTER_GOLDEN.read_text())
        for cell in ROSTER_CELLS:
            key = golden_key(scheduler, cell)
            assert golden_result(scheduler, *cell) == golden[key], key


def record(path, schedulers, cells):
    path.write_text(json.dumps(
        {
            golden_key(scheduler, cell): golden_result(scheduler, *cell)
            for scheduler in schedulers
            for cell in cells
        },
        indent=1,
        sort_keys=True,
    ) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    record(GOLDEN, PAPER, GOLDEN_CELLS)
    record(ROSTER_GOLDEN, ROSTER, ROSTER_CELLS)
