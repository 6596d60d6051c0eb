"""Unit tests for BatchTransaction."""

import pytest

from repro.txn import PATTERN_1, AccessMode, BatchTransaction, Step, TransactionState


def pattern1_txn(txn_id=1, f1=0, f2=1, arrival=0.0, declared=None):
    steps = PATTERN_1.instantiate({"F1": f1, "F2": f2})
    return BatchTransaction(txn_id, steps, arrival, declared_costs=declared)


def simple_txn(txn_id, spec, arrival=0.0):
    """spec: list of (file, 'r'|'w', cost)."""
    steps = [
        Step(f, AccessMode.EXCLUSIVE if op == "w" else AccessMode.SHARED, c)
        for f, op, c in spec
    ]
    return BatchTransaction(txn_id, steps, arrival)


class TestConstruction:
    def test_empty_steps_rejected(self):
        with pytest.raises(ValueError):
            BatchTransaction(1, [], 0.0)

    def test_declared_costs_default_to_exact(self):
        txn = pattern1_txn()
        assert txn.declared_costs == [1.0, 5.0, 0.2, 1.0]

    def test_declared_costs_length_checked(self):
        with pytest.raises(ValueError):
            pattern1_txn(declared=[1.0, 2.0])

    def test_negative_declared_cost_rejected(self):
        with pytest.raises(ValueError):
            pattern1_txn(declared=[1.0, -5.0, 0.2, 1.0])

    def test_initial_state(self):
        txn = pattern1_txn()
        assert txn.state is TransactionState.PENDING
        assert txn.current_step_index == 0
        assert txn.attempt == 1

    def test_bad_attempt_rejected(self):
        with pytest.raises(ValueError):
            BatchTransaction(1, PATTERN_1.instantiate({"F1": 0, "F2": 1}), 0.0, attempt=0)


class TestLockPlan:
    def test_strongest_mode_wins(self):
        """Pattern 1 reads then writes both files: X from first touch."""
        txn = pattern1_txn(f1=3, f2=7)
        assert txn.mode_for(3) is AccessMode.EXCLUSIVE
        assert txn.mode_for(7) is AccessMode.EXCLUSIVE

    def test_pure_read_file_stays_shared(self):
        txn = simple_txn(1, [(0, "r", 5.0), (1, "w", 1.0)])
        assert txn.mode_for(0) is AccessMode.SHARED
        assert txn.mode_for(1) is AccessMode.EXCLUSIVE

    def test_files_in_first_need_order(self):
        txn = simple_txn(1, [(5, "r", 1.0), (2, "w", 1.0), (5, "w", 1.0)])
        assert txn.files == [5, 2]

    def test_locks_at_marks_each_files_first_step(self):
        # Pattern 1 locks both files at its first two steps
        assert pattern1_txn(f1=0, f2=1).locks_at == [True, True, False, False]
        txn = simple_txn(1, [(5, "r", 1.0), (2, "w", 1.0), (5, "w", 1.0)])
        assert txn.locks_at == [True, True, False]
        assert txn.restart_copy(2).locks_at is txn.locks_at

    def test_read_and_write_sets(self):
        txn = simple_txn(1, [(0, "r", 5.0), (1, "w", 1.0), (2, "w", 1.0)])
        assert txn.read_set == {0, 1, 2}
        assert txn.write_set == {1, 2}


class TestConflicts:
    def test_write_write_conflict(self):
        a = simple_txn(1, [(0, "w", 1.0)])
        b = simple_txn(2, [(0, "w", 1.0)])
        assert a.conflicts_with(b)
        assert b.conflicts_with(a)

    def test_read_read_no_conflict(self):
        a = simple_txn(1, [(0, "r", 1.0)])
        b = simple_txn(2, [(0, "r", 1.0)])
        assert not a.conflicts_with(b)

    def test_read_write_conflict(self):
        a = simple_txn(1, [(0, "r", 1.0)])
        b = simple_txn(2, [(0, "w", 1.0)])
        assert a.conflicts_with(b)

    def test_disjoint_files_no_conflict(self):
        a = simple_txn(1, [(0, "w", 1.0)])
        b = simple_txn(2, [(1, "w", 1.0)])
        assert not a.conflicts_with(b)

    def test_conflict_files_sorted(self):
        a = simple_txn(1, [(5, "w", 1.0), (2, "w", 1.0)])
        b = simple_txn(2, [(2, "r", 1.0), (5, "r", 1.0)])
        assert a.conflict_files(b) == [2, 5]

    def test_blocked_step_is_first_conflicting(self):
        """Fig. 2: T2 = r(C:1) -> w(A:1) -> w(C:1) blocks against T1 on A
        at its second step, leaving 2 objects of remaining cost."""
        t1 = simple_txn(1, [(0, "w", 1.0), (1, "r", 3.0)])  # writes A=0
        t2 = simple_txn(2, [(2, "r", 1.0), (0, "w", 1.0), (2, "w", 1.0)])
        assert t2.blocked_step_against(t1) == 1
        assert t2.declared_cost_from_step(1) == pytest.approx(2.0)

    def test_blocked_step_without_conflict_raises(self):
        a = simple_txn(1, [(0, "r", 1.0)])
        b = simple_txn(2, [(1, "r", 1.0)])
        with pytest.raises(ValueError):
            a.blocked_step_against(b)


class TestCostArithmetic:
    def test_total_declared_cost(self):
        assert pattern1_txn().total_declared_cost == pytest.approx(7.2)

    def test_declared_cost_from_step(self):
        txn = pattern1_txn()
        assert txn.declared_cost_from_step(0) == pytest.approx(7.2)
        assert txn.declared_cost_from_step(2) == pytest.approx(1.2)
        assert txn.declared_cost_from_step(4) == 0.0

    def test_declared_cost_out_of_range(self):
        with pytest.raises(IndexError):
            pattern1_txn().declared_cost_from_step(5)

    def test_remaining_cost_fresh_transaction(self):
        """Fig. 2-(b): a just-started T1 has T0-weight = its full cost."""
        txn = pattern1_txn()
        assert txn.remaining_declared_cost() == pytest.approx(7.2)

    def test_remaining_cost_decreases_with_steps(self):
        txn = pattern1_txn()
        txn.advance()
        assert txn.remaining_declared_cost() == pytest.approx(6.2)

    def test_remaining_cost_scales_by_execution_progress(self):
        class FakeExecution:
            def fraction_done(self):
                return 0.5

        txn = pattern1_txn()
        txn.advance()  # at step 1, declared 5.0
        txn.current_execution = FakeExecution()
        assert txn.remaining_declared_cost() == pytest.approx(1.2 + 2.5)

    def test_remaining_cost_zero_after_commit(self):
        txn = pattern1_txn()
        txn.state = TransactionState.COMMITTED
        assert txn.remaining_declared_cost() == 0.0

    def test_declared_error_affects_remaining(self):
        txn = pattern1_txn(declared=[2.0, 10.0, 0.4, 2.0])
        assert txn.remaining_declared_cost() == pytest.approx(14.4)


class TestLifecycle:
    def test_advance_through_steps(self):
        txn = pattern1_txn()
        assert txn.current_step.file_id == 0
        assert not txn.is_last_step
        for _ in range(4):
            txn.advance()
        assert txn.finished_all_steps
        with pytest.raises(RuntimeError):
            txn.advance()

    def test_is_last_step(self):
        txn = pattern1_txn()
        for _ in range(3):
            txn.advance()
        assert txn.is_last_step

    def test_response_time(self):
        txn = pattern1_txn(arrival=100.0)
        txn.commit_time = 350.0
        assert txn.response_time() == 250.0

    def test_response_time_before_commit_raises(self):
        with pytest.raises(RuntimeError):
            pattern1_txn().response_time()

    def test_restart_copy_preserves_arrival_and_bumps_attempt(self):
        txn = pattern1_txn(arrival=42.0, declared=[2.0, 10.0, 0.4, 2.0])
        copy = txn.restart_copy(new_txn_id=99)
        assert copy.txn_id == 99
        assert copy.arrival_time == 42.0
        assert copy.attempt == 2
        assert copy.declared_costs == txn.declared_costs
        assert copy.steps == txn.steps
        assert copy.state is TransactionState.PENDING
        assert copy.current_step_index == 0

    def test_repr_contains_id_and_steps(self):
        txn = pattern1_txn(txn_id=7)
        assert "T7" in repr(txn)
        assert "r(F0:1)" in repr(txn)
