"""Regression and property tests for the incremental WTPG hot path.

The scheduler hot path maintains topological levels and backward
suffix distances incrementally, evaluates hypothetical grants without
mutating the graph, and restricts transitive-fix sweeps to the edges a
new precedence path could force.  These tests pin all three against
their from-scratch references:

* restricted ``propagate_transitive_fixes(touched=...)`` applies the
  same fix list as the original full fixpoint sweep;
* random add/grant/remove sequences keep the maintained structures
  bit-for-bit equal to a scratch recompute (``check_invariants``), the
  critical path equal to an independent longest-path DP, and the
  read-only hypothetical evaluation (``grant_raise``, on T0 weights
  read at most once per decision) equal to the scratch copy's full
  ``critical_path_length()`` after the grant, with LOW's verdict rule
  ``r_q > r_p and r_q > base`` equal to ``E(q) > E(p)`` for every pair
  of requests, on plain and backlog-inflated (LOW-LB) T0 weights.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core import WTPG, ResourceAwareWTPG
from repro.txn import AccessMode, BatchTransaction, Step


def make_txn(txn_id, spec):
    """spec: list of (file, 'r'|'w', cost)."""
    steps = [
        Step(f, AccessMode.EXCLUSIVE if op == "w" else AccessMode.SHARED, c)
        for f, op, c in spec
    ]
    return BatchTransaction(txn_id, steps, arrival_time=0.0)


def reference_critical_path(wtpg):
    """Independent longest-path recompute (same DP as the maintained
    suffix distances, evaluated from scratch), inf on a cycle."""
    precedence = wtpg.precedence_edges()
    adjacency = {}
    for (i, j), _ in precedence.items():
        adjacency.setdefault(i, set()).add(j)
    if WTPG._has_cycle(adjacency):
        return math.inf
    longest = {}

    def suffix(node):
        if node in longest:
            return longest[node]
        best = 0.0
        for succ in sorted(adjacency.get(node, ())):
            cand = precedence[(node, succ)] + suffix(succ)
            if cand > best:
                best = cand
        longest[node] = best
        return best

    best = 0.0
    for txn_id in wtpg.txn_ids:
        value = wtpg.t0_weight(txn_id) + suffix(txn_id)
        if value > best:
            best = value
    return best


def graph_state(wtpg):
    """Snapshot of everything a hypothetical evaluation must leave as is."""
    return (
        dict(wtpg._precedence),
        set(wtpg._conflicts),
        {k: set(v) for k, v in wtpg._succ.items()},
        {k: set(v) for k, v in wtpg._pred.items()},
        dict(wtpg._level),
        dict(wtpg._longest),
    )


class TestRestrictedPropagation:
    """Satellite regression: ``touched``-restricted sweeps apply the
    identical fix list as the original full fixpoint."""

    def _forced_chain(self):
        """T1 -> T2 -> T3 by precedence plus a still-open conflict
        (T1, T3): the Fig. 6 shape where a path forces an edge."""
        wtpg = WTPG()
        wtpg.add_transaction(make_txn(1, [(0, "w", 2.0), (2, "w", 1.0)]))
        wtpg.add_transaction(make_txn(2, [(0, "w", 1.0), (1, "w", 2.0)]))
        wtpg.add_transaction(make_txn(3, [(1, "w", 1.0), (2, "w", 2.0)]))
        return wtpg

    def test_restricted_matches_full_fixpoint(self):
        wtpg = self._forced_chain()
        # grant F0 to T1 and F1 to T2 without propagation, so the
        # conflict edge (T1, T3) is left for the sweep to force
        wtpg.grant(1, 0, propagate=False)
        new_edges = wtpg.grant(2, 1, propagate=False)
        assert new_edges == [(2, 3)]

        full = wtpg._scratch_copy()
        applied_full = full.propagate_transitive_fixes(touched=None)
        applied_restricted = wtpg.propagate_transitive_fixes(
            touched=new_edges
        )

        assert sorted(applied_restricted) == sorted(applied_full)
        assert (1, 3) in [tuple(f) for f in applied_restricted]
        assert wtpg.precedence_edges() == full.precedence_edges()
        assert set(wtpg._conflicts) == set(full._conflicts)
        wtpg.check_invariants()

    def test_restricted_sweep_after_every_grant_is_complete(self):
        """Keeping the graph propagated grant-by-grant (what the
        schedulers do) ends in the same state as one full sweep."""
        wtpg = self._forced_chain()
        reference = wtpg._scratch_copy()
        reference.grant(1, 0, propagate=False)
        reference.grant(2, 1, propagate=False)
        reference.propagate_transitive_fixes(touched=None)

        wtpg.grant(1, 0)  # propagates restricted internally
        wtpg.grant(2, 1)
        assert wtpg.precedence_edges() == reference.precedence_edges()
        assert set(wtpg._conflicts) == set(reference._conflicts)

    def test_empty_touched_is_a_no_op(self):
        wtpg = self._forced_chain()
        assert wtpg.propagate_transitive_fixes(touched=[]) == []


# -- randomized driver --------------------------------------------------------

NUM_FILES = 4

txn_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=NUM_FILES - 1),
        st.sampled_from(["r", "w"]),
        st.floats(min_value=0.0, max_value=5.0),
    ),
    min_size=1,
    max_size=4,
)

# an op is (kind, pick, spec): kind 0 = add, 1 = grant, 2 = remove;
# ``pick`` indexes into the live ids / file pool deterministically
ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=63),
        txn_specs,
    ),
    min_size=1,
    max_size=20,
)


def drive(wtpg, ops, after_each):
    """Interpret a random op sequence against the live graph."""
    next_id = 1
    for kind, pick, spec in ops:
        ids = wtpg.txn_ids
        if kind == 0 or not ids:
            wtpg.add_transaction(make_txn(next_id, spec))
            next_id += 1
        elif kind == 1:
            txn_id = ids[pick % len(ids)]
            file_id = pick % NUM_FILES
            if file_id in wtpg.transaction(txn_id).read_set:
                fixes = wtpg.fixes_for_grant(txn_id, file_id)
                if not wtpg.creates_cycle(fixes):
                    wtpg.grant(txn_id, file_id)
        else:
            wtpg.remove_transaction(ids[pick % len(ids)])
        after_each(wtpg)


class TestIncrementalMatchesRecompute:
    """Satellite property test: the incremental maintenance path agrees
    with the from-scratch references after every operation."""

    @given(ops=ops_strategy)
    @settings(max_examples=60, deadline=None)
    def test_levels_suffixes_and_critical_path(self, ops):
        wtpg = WTPG()

        def check(graph):
            graph.check_invariants()  # maintained vs recomputed, exact
            assert graph.critical_path_length() == reference_critical_path(
                graph
            )

        drive(wtpg, ops, check)

    @given(ops=ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_read_only_e_matches_scratch_copy(self, ops):
        drive(WTPG(), ops, self._read_only_e_matches_scratch_copy)

    @given(ops=ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_read_only_e_matches_scratch_copy_lowlb(self, ops):
        # LOW-LB: T0 weights inflated by uneven, non-integral backlogs
        wtpg = ResourceAwareWTPG(
            lambda node: 1 / 3 + 0.7 * node,
            lambda file_id: [file_id % 3, (file_id + 1) % 3],
            rho=0.9,
        )
        drive(wtpg, ops, self._read_only_e_matches_scratch_copy)

    @staticmethod
    def _read_only_e_matches_scratch_copy(graph):
        requests = [
            (txn_id, file_id)
            for txn_id in graph.txn_ids
            for file_id in graph.transaction(txn_id).files
        ]
        # one T0 cache per state, as one LOW decision shares it; each
        # weight is read at most once through it
        reads = []
        t0_weight = graph.t0_weight
        graph.t0_weight = lambda txn_id: reads.append(txn_id) or t0_weight(
            txn_id
        )
        t0 = {}
        before = graph_state(graph)
        raised = {q: graph.grant_raise(*q, t0) for q in requests}
        base = graph.critical_path_length(t0)
        assert graph_state(graph) == before  # nothing was mutated
        assert sorted(reads) == sorted(set(reads))
        del graph.t0_weight

        expected = {}
        for q in requests:
            r_q, fixes = raised[q]
            assert fixes == graph.fixes_for_grant(*q)
            scratch = graph._scratch_copy()
            if scratch.creates_cycle(fixes):
                expected[q] = math.inf
            else:
                for i, j in fixes:
                    scratch.apply_fix(i, j)
                scratch.propagate_transitive_fixes(touched=fixes)
                expected[q] = scratch.critical_path_length()
            # E(q) = max(critical path now, r_q), bit for bit
            e_q = r_q if math.isinf(r_q) else max(base, r_q)
            assert e_q == expected[q]
            assert graph.hypothetical_grant_critical_path(*q) == expected[q]
        # LOW's verdict rule: E(q) > E(p) iff r_q > r_p and r_q > base
        for q in requests:
            r_q = raised[q][0]
            for p in requests:
                r_p = raised[p][0]
                assert (r_q > r_p and r_q > base) == (
                    expected[q] > expected[p]
                )

    @given(ops=ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_cycle_verdicts_match_full_dfs(self, ops):
        wtpg = WTPG()

        def check(graph):
            for txn_id in graph.txn_ids:
                txn = graph.transaction(txn_id)
                for file_id in txn.files:
                    fixes = graph.fixes_for_grant(txn_id, file_id)
                    adjacency = {
                        node: set(succ)
                        for node, succ in graph._succ.items()
                    }
                    for i, j in fixes:
                        adjacency.setdefault(i, set()).add(j)
                    assert graph.creates_cycle(fixes) == WTPG._has_cycle(
                        adjacency
                    )

        drive(wtpg, ops, check)
