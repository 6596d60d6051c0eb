"""Unit and property tests for the chain-form machinery (GOW's core)."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import WTPG, GOWScheduler
from repro.core.chain import (
    LEFT,
    RIGHT,
    ChainComponent,
    ChainEdge,
    NotChainFormError,
    brute_force_component,
    _EPS,
    _candidate_values,
    _component_lists,
    _component_node_orders,
    _feasible,
    _orientation_value,
    compute_optimal_order,
    extract_components,
    is_union_of_paths,
    keeps_chain_form,
    keeps_chain_form_incremental,
    path_through,
    solve_component,
    undirected_adjacency,
)
from repro.machine import MachineConfig
from repro.sim import run_simulation
from repro.txn import (
    AccessMode,
    BatchTransaction,
    Step,
    experiment1_workload,
    experiment2_workload,
)


def txn(txn_id, spec, arrival=0.0):
    steps = [
        Step(f, AccessMode.EXCLUSIVE if op == "w" else AccessMode.SHARED, c)
        for f, op, c in spec
    ]
    return BatchTransaction(txn_id, steps, arrival)


def free_edge(left, right, w_right, w_left):
    return ChainEdge(left, right, w_right, w_left, frozenset({RIGHT, LEFT}))


def component(node_weights, edges):
    return ChainComponent(
        nodes=list(range(len(node_weights))),
        node_weights=list(node_weights),
        edges=edges,
    )


def draw_component(data, size):
    """A random component of ``size`` nodes, and whether its weights are
    small integers (every sum exact, ties common)."""
    integral = data.draw(st.booleans())
    if integral:
        weights = st.integers(min_value=0, max_value=4).map(float)
    else:
        weights = st.floats(min_value=0.0, max_value=20.0)
    node_weights = [data.draw(weights) for _ in range(size)]
    edges = []
    for i in range(size - 1):
        allowed = data.draw(
            st.sampled_from(
                [frozenset({RIGHT, LEFT}), frozenset({RIGHT}), frozenset({LEFT})]
            )
        )
        wr = data.draw(weights) if RIGHT in allowed else math.nan
        wl = data.draw(weights) if LEFT in allowed else math.nan
        edges.append(ChainEdge(i, i + 1, wr, wl, allowed))
    return component(node_weights, edges), integral


class TestUnionOfPaths:
    def test_empty_graph_is_chain(self):
        assert is_union_of_paths({})

    def test_single_node(self):
        assert is_union_of_paths({1: set()})

    def test_path_of_three(self):
        assert is_union_of_paths({1: {2}, 2: {1, 3}, 3: {2}})

    def test_star_is_not_chain(self):
        assert not is_union_of_paths({1: {2, 3, 4}, 2: {1}, 3: {1}, 4: {1}})

    def test_triangle_is_not_chain(self):
        assert not is_union_of_paths({1: {2, 3}, 2: {1, 3}, 3: {1, 2}})

    def test_two_disjoint_paths(self):
        assert is_union_of_paths({1: {2}, 2: {1}, 3: {4}, 4: {3}, 5: set()})


class TestKeepsChainForm:
    def test_first_transaction_always_ok(self):
        wtpg = WTPG()
        assert keeps_chain_form(wtpg, txn(1, [(0, "w", 1.0)]))

    def test_extending_a_path_end_ok(self):
        wtpg = WTPG()
        wtpg.add_transaction(txn(1, [(0, "w", 1.0)]))
        wtpg.add_transaction(txn(2, [(0, "w", 1.0), (1, "w", 1.0)]))
        newcomer = txn(3, [(1, "w", 1.0)])  # conflicts only with T2
        assert keeps_chain_form(wtpg, newcomer)

    def test_conflicting_with_middle_fails(self):
        wtpg = WTPG()
        wtpg.add_transaction(txn(1, [(0, "w", 1.0)]))
        wtpg.add_transaction(txn(2, [(0, "w", 1.0), (1, "w", 1.0)]))
        wtpg.add_transaction(txn(3, [(1, "w", 1.0), (2, "w", 1.0)]))
        # T2 is interior (degree 2); a newcomer touching file 0 and 1
        # would give T2 degree 3
        newcomer = txn(4, [(0, "w", 1.0), (1, "w", 1.0)])
        assert not keeps_chain_form(wtpg, newcomer)

    def test_closing_a_cycle_fails(self):
        wtpg = WTPG()
        wtpg.add_transaction(txn(1, [(0, "w", 1.0)]))
        wtpg.add_transaction(txn(2, [(0, "w", 1.0), (1, "w", 1.0)]))
        wtpg.add_transaction(txn(3, [(1, "w", 1.0), (2, "w", 1.0)]))
        # newcomer conflicts with both ends T1 (file 0) and T3 (file 2)
        newcomer = txn(4, [(0, "w", 1.0), (2, "w", 1.0)])
        assert not keeps_chain_form(wtpg, newcomer)

    def test_isolated_newcomer_ok(self):
        wtpg = WTPG()
        wtpg.add_transaction(txn(1, [(0, "w", 1.0)]))
        assert keeps_chain_form(wtpg, txn(2, [(5, "w", 1.0)]))


class TestExtractComponents:
    def test_empty(self):
        assert extract_components(WTPG()) == []

    def test_singleton_component(self):
        wtpg = WTPG()
        wtpg.add_transaction(txn(1, [(0, "w", 2.0)]))
        comps = extract_components(wtpg)
        assert len(comps) == 1
        assert comps[0].nodes == [1]
        assert comps[0].node_weights == [2.0]
        assert comps[0].edges == []

    def test_path_ordering_and_weights(self):
        wtpg = WTPG()
        t1 = txn(1, [(0, "w", 2.0)])
        t2 = txn(2, [(0, "w", 3.0), (1, "w", 1.0)])
        t3 = txn(3, [(1, "w", 5.0)])
        for t in (t1, t2, t3):
            wtpg.add_transaction(t)
        comps = extract_components(wtpg)
        assert len(comps) == 1
        nodes = comps[0].nodes
        assert nodes in ([1, 2, 3], [3, 2, 1])  # a path has two ends

    def test_precedence_edges_are_direction_constrained(self):
        wtpg = WTPG()
        t1 = txn(1, [(0, "w", 2.0)])
        t2 = txn(2, [(0, "w", 3.0)])
        wtpg.add_transaction(t1)
        wtpg.add_transaction(t2)
        wtpg.apply_fix(1, 2)
        comps = extract_components(wtpg)
        edge = comps[0].edges[0]
        assert len(edge.allowed) == 1

    def test_non_chain_raises(self):
        wtpg = WTPG()
        # star: T1, T2, T3 all conflict with T4 on distinct files
        wtpg.add_transaction(txn(4, [(0, "w", 1), (1, "w", 1), (2, "w", 1)]))
        wtpg.add_transaction(txn(1, [(0, "w", 1)]))
        wtpg.add_transaction(txn(2, [(1, "w", 1)]))
        wtpg.add_transaction(txn(3, [(2, "w", 1)]))
        with pytest.raises(NotChainFormError):
            extract_components(wtpg)


class TestSolveComponent:
    def test_single_node(self):
        value, dirs = solve_component(component([4.0], []))
        assert value == 4.0
        assert dirs == []

    def test_two_nodes_picks_cheaper_orientation(self):
        # orient 0->1: runs max(w0[0]+5, w0[1]) = max(6,1) = 6
        # orient 1->0: max(w0[1]+2, w0[0]) = max(3,1) = 3
        comp = component([1.0, 1.0], [free_edge(0, 1, 5.0, 2.0)])
        value, dirs = solve_component(comp)
        assert value == pytest.approx(3.0)
        assert dirs == [LEFT]

    def test_respects_direction_constraint(self):
        comp = component(
            [1.0, 1.0],
            [ChainEdge(0, 1, 5.0, math.nan, frozenset({RIGHT}))],
        )
        value, dirs = solve_component(comp)
        assert value == pytest.approx(6.0)
        assert dirs == [RIGHT]

    def test_alternating_beats_chain_of_blocking(self):
        """Long same-direction runs accumulate; alternation caps the path."""
        comp = component(
            [1.0, 1.0, 1.0, 1.0],
            [
                free_edge(0, 1, 3.0, 3.0),
                free_edge(1, 2, 3.0, 3.0),
                free_edge(2, 3, 3.0, 3.0),
            ],
        )
        value, dirs = solve_component(comp)
        # all-right gives 1+9 = 10; alternation gives max single-edge 4
        assert value == pytest.approx(4.0)
        assert dirs[0] != dirs[1] or dirs[1] != dirs[2]

    def test_fig3_example_shape(self):
        """Fig. 3: W = {T1 -> T2, T3 -> T2} makes the shortest critical
        path in a chain T1 - T2 - T3 where T2 is the expensive blocker."""
        wtpg = WTPG()
        t1 = txn(1, [(0, "w", 3.0)])
        t2 = txn(2, [(0, "w", 1.0), (1, "w", 1.0)])
        t3 = txn(3, [(1, "w", 4.0)])
        for t in (t1, t2, t3):
            wtpg.add_transaction(t)
        order = compute_optimal_order(wtpg)
        # unique optimum: orient both edges into T2 (critical path
        # T0 -> T1 -> T2 of length 5, cf. Fig. 3-(b))
        assert order.direction(1, 2) == (1, 2)
        assert order.direction(3, 2) == (3, 2)
        assert order.critical_path == pytest.approx(5.0)

    def test_matches_brute_force_on_fixed_cases(self):
        cases = [
            component([2.0, 5.0, 1.0], [free_edge(0, 1, 1.0, 7.0), free_edge(1, 2, 2.0, 2.0)]),
            component([0.0, 0.0], [free_edge(0, 1, 10.0, 0.5)]),
            component(
                [3.0, 0.0, 4.0, 1.0],
                [
                    free_edge(0, 1, 2.0, 9.0),
                    free_edge(1, 2, 1.0, 1.0),
                    free_edge(2, 3, 8.0, 0.0),
                ],
            ),
        ]
        for comp in cases:
            fast, _ = solve_component(comp)
            slow, _ = brute_force_component(comp)
            assert fast == pytest.approx(slow)

    def test_64_node_chain(self):
        rng = random.Random(7)
        comp = component(
            [rng.uniform(0, 10) for _ in range(64)],
            [
                free_edge(i, i + 1, rng.uniform(0, 10), rng.uniform(0, 10))
                for i in range(63)
            ],
        )
        value, dirs = solve_component(comp)
        assert len(dirs) == 63
        assert value > 0

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        size=st.integers(min_value=1, max_value=7),
    )
    def test_matches_brute_force_randomised(self, data, size):
        comp, integral = draw_component(data, size)
        fast_value, fast_dirs = solve_component(comp)
        slow_value, _ = brute_force_component(comp)
        assert fast_value == pytest.approx(slow_value, abs=1e-6)
        # the reconstructed orientation really achieves the optimum
        achieved = _orientation_value(comp, fast_dirs)
        assert achieved == pytest.approx(fast_value, abs=1e-6)
        # and respects every direction constraint
        for edge, direction in zip(comp.edges, fast_dirs):
            assert direction in edge.allowed
        if integral:
            # GOW's tie-break: the first optimum in RIGHT-before-LEFT
            # order among all orientations
            first = next(
                list(directions)
                for directions in itertools.product(
                    *[[d for d in (RIGHT, LEFT) if d in edge.allowed]
                      for edge in comp.edges]
                )
                if _orientation_value(comp, list(directions)) == slow_value
            )
            assert fast_value == slow_value
            assert fast_dirs == first

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        size=st.integers(min_value=1, max_value=7),
    )
    def test_feasibility_matches_brute_force_at_every_candidate(
        self, data, size
    ):
        comp, _ = draw_component(data, size)
        lists = _component_lists(comp)
        optimum, _ = brute_force_component(comp)
        for theta in _candidate_values(lists):
            assert _feasible(lists, theta) == (optimum <= theta + _EPS), theta


class TestComputeOptimalOrder:
    def test_empty_graph(self):
        order = compute_optimal_order(WTPG())
        assert order.critical_path == 0.0

    def test_unknown_pair_is_vacuously_consistent(self):
        wtpg = WTPG()
        wtpg.add_transaction(txn(1, [(0, "w", 1.0)]))
        order = compute_optimal_order(wtpg)
        assert order.consistent_with_fix(1, 99)

    def test_consistency_check(self):
        wtpg = WTPG()
        t1 = txn(1, [(0, "w", 1.0)])
        t2 = txn(2, [(0, "w", 9.0)])
        wtpg.add_transaction(t1)
        wtpg.add_transaction(t2)
        order = compute_optimal_order(wtpg)
        i, j = order.direction(1, 2)
        assert order.consistent_with_fix(i, j)
        assert not order.consistent_with_fix(j, i)

    def test_multi_component_critical_path_is_max(self):
        wtpg = WTPG()
        wtpg.add_transaction(txn(1, [(0, "w", 2.0)]))
        wtpg.add_transaction(txn(2, [(5, "w", 11.0)]))
        order = compute_optimal_order(wtpg)
        assert order.critical_path == pytest.approx(11.0)


# -- decision-local W: the requester's component alone ---------------------------

NUM_FILES = 8

# one or two steps on neighbouring files, so conflicts line up in chains
txn_specs = st.builds(
    lambda base, wide, modes, costs: [
        (base + k, mode, cost)
        for k, mode, cost in zip(range(1 + wide), modes, costs)
    ],
    st.integers(min_value=0, max_value=NUM_FILES - 2),
    st.booleans(),
    st.lists(st.sampled_from(["r", "w", "w"]), min_size=2, max_size=2),
    st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=2, max_size=2),
)

chain_ops = st.lists(
    st.tuples(
        # 0 = admit through GOW's chain-form rule, 1 = grant, 2 = commit
        st.sampled_from([0, 0, 0, 1, 1, 2]),
        st.integers(min_value=0, max_value=63),
        txn_specs,
    ),
    min_size=10,
    max_size=40,
)


def drive_chain(ops):
    """A chain-form WTPG built as GOW builds it: admissions gated on
    chain form, grants that close no cycle, commits."""
    wtpg = WTPG()
    for number, (kind, pick, spec) in enumerate(ops, start=1):
        ids = wtpg.txn_ids
        if kind == 0 or not ids:
            newcomer = txn(number, spec)
            if keeps_chain_form_incremental(wtpg, newcomer):
                wtpg.add_transaction(newcomer)
        elif kind == 1:
            txn_id = ids[pick % len(ids)]
            files = sorted(wtpg.transaction(txn_id).files)
            file_id = files[pick % len(files)]
            if not wtpg.creates_cycle(wtpg.fixes_for_grant(txn_id, file_id)):
                wtpg.grant(txn_id, file_id)
        else:
            wtpg.remove_transaction(ids[pick % len(ids)])
    return wtpg


def component_of(wtpg, txn_id):
    adjacency = undirected_adjacency(wtpg)
    seen, stack = {txn_id}, [txn_id]
    while stack:
        for nxt in adjacency[stack.pop()] - seen:
            seen.add(nxt)
            stack.append(nxt)
    return seen


class TestDecisionLocalOrder:
    @settings(max_examples=150, deadline=None)
    @given(ops=chain_ops)
    def test_local_order_matches_whole_graph(self, ops):
        wtpg = drive_chain(ops)
        assert is_union_of_paths(undirected_adjacency(wtpg))
        whole = compute_optimal_order(wtpg)
        orders = {frozenset(o): o for o in _component_node_orders(wtpg)}
        solved = {
            frozenset(c.nodes): solve_component(c)[0]
            for c in extract_components(wtpg)
        }
        for t in wtpg.txn_ids:
            path = path_through(wtpg, t)
            assert path == orders[frozenset(path)]
            local = compute_optimal_order(wtpg, around=t)
            for other in wtpg.neighbors(t):
                assert local.direction(t, other) == whole.direction(t, other)
            assert local.critical_path == solved[frozenset(path)]

    @settings(max_examples=100, deadline=None)
    @given(ops=chain_ops, spec=txn_specs)
    def test_broken_component_raises_only_there(self, ops, spec):
        wtpg = drive_chain(ops)
        newcomer = txn(1000, spec)
        breaks = not keeps_chain_form_incremental(wtpg, newcomer)
        wtpg.add_transaction(newcomer)  # bypass the admission gate
        broken = component_of(wtpg, 1000) if breaks else set()
        for t in wtpg.txn_ids:
            if t in broken:
                with pytest.raises(NotChainFormError):
                    path_through(wtpg, t)
                with pytest.raises(NotChainFormError):
                    compute_optimal_order(wtpg, around=t)
            else:
                compute_optimal_order(wtpg, around=t)

    def test_degree_three_raises(self):
        wtpg = WTPG()
        wtpg.add_transaction(txn(4, [(0, "w", 1), (1, "w", 1), (2, "w", 1)]))
        for t, f in ((1, 0), (2, 1), (3, 2)):
            wtpg.add_transaction(txn(t, [(f, "w", 1)]))
        for t in (1, 2, 3, 4):
            with pytest.raises(NotChainFormError):
                path_through(wtpg, t)

    def test_cycle_raises(self):
        wtpg = WTPG()
        wtpg.add_transaction(txn(1, [(0, "w", 1), (2, "w", 1)]))
        wtpg.add_transaction(txn(2, [(0, "w", 1), (1, "w", 1)]))
        wtpg.add_transaction(txn(3, [(1, "w", 1), (2, "w", 1)]))
        for t in (1, 2, 3):
            with pytest.raises(NotChainFormError):
                path_through(wtpg, t)

    def test_isolated_requester(self):
        wtpg = WTPG()
        wtpg.add_transaction(txn(7, [(0, "w", 3.0)]))
        assert path_through(wtpg, 7) == [7]
        assert compute_optimal_order(wtpg, around=7).critical_path == 3.0


class TestGOWKeepsWholeGraphChainForm:
    """GOW solves only the requester's component, so production checks
    chain form only there; the whole graph must stay chain-form after
    every admission, grant and commit."""

    @pytest.mark.parametrize("workload", ["exp1", "exp2"])
    def test_union_of_paths_after_every_mutation(self, monkeypatch, workload):
        checks = []

        def checked(method):
            def wrapper(self, *args, **kwargs):
                result = method(self, *args, **kwargs)
                wtpg = self if isinstance(self, WTPG) else self.wtpg
                assert is_union_of_paths(undirected_adjacency(wtpg))
                checks.append(method.__name__)
                return result
            return wrapper

        for owner, name in (
            (GOWScheduler, "_register_in_wtpg"),
            (GOWScheduler, "_deregister_from_wtpg"),
            (WTPG, "grant"),
        ):
            monkeypatch.setattr(owner, name, checked(getattr(owner, name)))
        if workload == "exp1":
            config = MachineConfig(dd=1, num_files=16)
            spec = experiment1_workload(0.8, num_files=16)
        else:
            config = MachineConfig(dd=2)
            spec = experiment2_workload(1.0)
        result = run_simulation(
            "GOW", spec, config, seed=5, duration_ms=200_000.0,
            warmup_ms=0.0,
        )
        assert result.completed > 20
        for name in ("_register_in_wtpg", "_deregister_from_wtpg", "grant"):
            assert checks.count(name) > 20, (name, checks.count(name))
