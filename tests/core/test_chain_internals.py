"""Focused unit tests for chain-solver internals."""

import math

import pytest

from repro.core.chain import (
    LEFT,
    RIGHT,
    ChainComponent,
    ChainEdge,
    _advance,
    _candidate_values,
    _component_lists,
    _feasible,
    _start,
)


def free_edge(left, right, w_right, w_left):
    return ChainEdge(left, right, w_right, w_left, frozenset({RIGHT, LEFT}))


def component(node_weights, edges):
    return ChainComponent(
        nodes=list(range(len(node_weights))),
        node_weights=list(node_weights),
        edges=edges,
    )


def lists(node_weights, edges):
    """The solver's flat lists for a hand-built component."""
    return _component_lists(component(node_weights, edges))


def forced(flat, index, direction):
    """``flat`` with edge ``index`` narrowed to ``direction`` (an
    empty set when the edge does not allow it)."""
    w0, w_right, w_left, can_right, can_left = flat
    can_right, can_left = list(can_right), list(can_left)
    can_right[index] = can_right[index] and direction == RIGHT
    can_left[index] = can_left[index] and direction == LEFT
    return w0, w_right, w_left, can_right, can_left


class TestChainEdgeValidation:
    def test_empty_direction_set_rejected(self):
        with pytest.raises(ValueError):
            ChainEdge(0, 1, 1.0, 1.0, frozenset())

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            ChainEdge(0, 1, 1.0, 1.0, frozenset({"up"}))


class TestChainComponentValidation:
    def test_weight_count_mismatch(self):
        with pytest.raises(ValueError):
            ChainComponent(nodes=[0, 1], node_weights=[1.0], edges=[])

    def test_edge_count_mismatch(self):
        with pytest.raises(ValueError):
            ChainComponent(nodes=[0, 1], node_weights=[1.0, 1.0], edges=[])


class TestLeftRunState:
    def test_open_left_runs_keep_the_smallest_cum(self):
        # an open LEFT run after edge 1: continuing the one opened at
        # edge 0 gives cum 2, opening one at edge 1 gives cum 1
        flat = lists(
            [0.0, 0.0, 0.0],
            [free_edge(0, 1, 1.0, 1.0), free_edge(1, 2, 1.0, 1.0)],
        )
        assert _advance(flat, 100.0, _start(flat), 0, 2)[1] == 1.0

    def test_no_left_run_over_the_bound(self):
        flat = lists([0.0, 5.0], [free_edge(0, 1, 1.0, 1.0)])
        # LEFT would give node 1 the value 5 + 1 = 6
        assert _advance(flat, 5.5, _start(flat), 0, 1) == (5.0, None)

    def test_start_node_weight_bounds_a_left_run(self):
        # the start state's own weight, 9, is over the bound either way
        flat = lists([9.0, 1.0], [free_edge(0, 1, 0.0, 0.0)])
        assert _advance(flat, 8.0, _start(flat), 0, 1) is None


class TestCandidateValues:
    def test_single_node(self):
        assert _candidate_values(lists([4.0], [])) == [4.0]

    def test_includes_node_weights_and_path_sums(self):
        values = _candidate_values(
            lists([1.0, 2.0], [free_edge(0, 1, 10.0, 20.0)])
        )
        # node weights 1, 2; rightward 1+10 = 11; leftward 2+20 = 22
        assert set(values) == {1.0, 2.0, 11.0, 22.0}

    def test_respects_direction_constraints(self):
        values = _candidate_values(
            lists(
                [1.0, 2.0],
                [ChainEdge(0, 1, 10.0, math.nan, frozenset({RIGHT}))],
            )
        )
        assert 11.0 in values
        assert all(not math.isnan(v) for v in values)

    def test_sorted_output(self):
        values = _candidate_values(
            lists(
                [3.0, 1.0, 2.0],
                [free_edge(0, 1, 1.0, 1.0), free_edge(1, 2, 1.0, 1.0)],
            )
        )
        assert values == sorted(values)


class TestFeasibility:
    def test_single_node_threshold(self):
        flat = lists([4.0], [])
        assert _feasible(flat, 4.0)
        assert not _feasible(flat, 3.9)

    def test_two_node_choice(self):
        # right: max(1+5, 1) = 6; left: max(1+2, 1) = 3
        flat = lists([1.0, 1.0], [free_edge(0, 1, 5.0, 2.0)])
        assert _feasible(flat, 3.0)
        assert not _feasible(flat, 2.9)
        assert _feasible(flat, 6.0)

    def test_forced_direction_changes_feasibility(self):
        flat = lists([1.0, 1.0], [free_edge(0, 1, 5.0, 2.0)])
        # forcing RIGHT makes 3.0 infeasible
        assert not _feasible(forced(flat, 0, RIGHT), 3.0)
        assert _feasible(forced(flat, 0, RIGHT), 6.0)

    def test_forcing_direction_not_allowed_is_infeasible(self):
        flat = lists(
            [1.0, 1.0],
            [ChainEdge(0, 1, 5.0, math.nan, frozenset({RIGHT}))],
        )
        assert not _feasible(forced(flat, 0, LEFT), 100.0)

    def test_node_weight_alone_bounds_theta(self):
        flat = lists([9.0, 1.0], [free_edge(0, 1, 0.0, 0.0)])
        assert not _feasible(flat, 8.0)
        assert _feasible(flat, 9.0)
