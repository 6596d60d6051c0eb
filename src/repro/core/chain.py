"""Chain-form WTPGs and the optimal serializable order for GOW.

GOW (Section 3.2) keeps the WTPG in *chain form*: the undirected conflict
structure over general transactions is a disjoint union of simple paths.
Under that restriction the full serializable order W minimising the
critical path is computable in low polynomial time (the paper cites
O(n^2) from ref. [13]).

The algorithm here:

1. Orienting the edges of a path graph never creates a directed cycle, so
   every full orientation is serializable; the objective is purely the
   critical path (the longest T0-to-Tf path).
2. In an oriented path, directed paths are exactly the maximal
   same-direction *runs*; the value of a run is the maximum over its start
   nodes c of ``w0(c) + (sum of run-edge weights from c onward)``.
3. Every achievable critical-path value is therefore the value of some
   directed contiguous sub-path -- an O(n^2) candidate set.  We binary
   search the candidates with an O(n) feasibility DP
   ("is there an orientation whose every run value <= theta?") and then
   reconstruct one optimal orientation greedily, edge by edge: each free
   edge goes RIGHT when the suffix is still feasible from the DP state
   of the prefix oriented so far (one step plus the suffix, not a
   re-run from edge 0), else LEFT.  The DP reads flat per-edge lists
   (weights and allowed directions), built straight from the WTPG on
   GOW's hot path; :func:`solve_component`, the whole-graph and the
   one-path :func:`compute_optimal_order` share it.

Already-determined precedence edges participate as direction-constrained
edges.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import typing

from repro.core.wtpg import WTPG

#: direction labels: an edge between positions i and i+1 is oriented
#: RIGHT when node_i -> node_{i+1}, LEFT when node_{i+1} -> node_i.
RIGHT = "right"
LEFT = "left"

_DIRECTIONS = frozenset({RIGHT, LEFT})


@dataclasses.dataclass(frozen=True)
class ChainEdge:
    """One edge of a chain component, in path position order."""

    left_node: int
    right_node: int
    weight_right: float  # weight when oriented left_node -> right_node
    weight_left: float  # weight when oriented right_node -> left_node
    allowed: typing.FrozenSet[str]  # subset of {RIGHT, LEFT}

    def __post_init__(self) -> None:
        if not self.allowed:
            raise ValueError("edge must allow at least one direction")
        if not self.allowed <= _DIRECTIONS:
            raise ValueError(f"bad direction set {self.allowed!r}")


@dataclasses.dataclass
class ChainComponent:
    """A maximal path of the conflict structure: nodes and edges in order."""

    nodes: typing.List[int]
    node_weights: typing.List[float]  # w0 (T0-edge weight) per node
    edges: typing.List[ChainEdge]

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.node_weights):
            raise ValueError("one weight per node required")
        if len(self.edges) != max(0, len(self.nodes) - 1):
            raise ValueError("a path of k nodes has k-1 edges")


class NotChainFormError(ValueError):
    """The conflict structure is not a disjoint union of simple paths."""


# -- chain-form testing ---------------------------------------------------------


def undirected_adjacency(wtpg: WTPG) -> typing.Dict[int, typing.Set[int]]:
    """Conflict + precedence adjacency over general transactions."""
    return {t: wtpg.neighbors(t) for t in wtpg.txn_ids}


def is_union_of_paths(adjacency: typing.Mapping[int, typing.Set[int]]) -> bool:
    """True when every component is a simple path (degree <= 2, acyclic)."""
    if any(len(neigh) > 2 for neigh in adjacency.values()):
        return False
    # Acyclicity of an undirected graph: every component has
    # (#edges == #nodes - 1); with degrees <= 2 that means a path.
    seen: typing.Set[int] = set()
    for start in adjacency:
        if start in seen:
            continue
        nodes: typing.Set[int] = set()
        stack = [start]
        while stack:
            node = stack.pop()
            if node in nodes:
                continue
            nodes.add(node)
            stack.extend(adjacency[node] - nodes)
        seen |= nodes
        edge_count = sum(len(adjacency[n] & nodes) for n in nodes) // 2
        if edge_count != len(nodes) - 1:
            return False
    return True


def keeps_chain_form(
    wtpg: WTPG, new_txn: "typing.Any"
) -> bool:
    """GOW Phase 0: would admitting ``new_txn`` keep the WTPG a chain?

    ``new_txn`` is a BatchTransaction not yet in the graph.  This is the
    from-scratch reference test; it conflicts-scans every active
    transaction and re-verifies the whole structure.
    """
    adjacency = undirected_adjacency(wtpg)
    new_neighbors = {
        other_id
        for other_id in wtpg.txn_ids
        if new_txn.conflicts_with(wtpg.transaction(other_id))
    }
    adjacency[new_txn.txn_id] = set(new_neighbors)
    for other_id in new_neighbors:
        adjacency[other_id] = adjacency[other_id] | {new_txn.txn_id}
    return is_union_of_paths(adjacency)


def keeps_chain_form_incremental(wtpg: WTPG, new_txn: "typing.Any") -> bool:
    """Chain-form admission test for a WTPG that already *is* a chain.

    GOW maintains chain form invariantly (admissions are gated on it,
    removals only split paths, and fixing a conflict edge into a
    precedence edge leaves the undirected structure unchanged), so the
    full :func:`keeps_chain_form` re-verification is redundant at its
    admission sites.  Under that precondition the newcomer keeps the
    chain iff it has at most two conflict neighbours, each of current
    degree <= 1, and -- when there are two -- they lie on *different*
    paths (joining the ends of one path would close a cycle).  Matches
    :func:`keeps_chain_form` exactly on chain-form graphs; O(neighbours
    + one path walk) instead of O(nodes + edges).
    """
    neighbors = wtpg.conflict_opponents(new_txn)
    if len(neighbors) > 2:
        return False
    for other_id in neighbors:
        if wtpg.degree(other_id) >= 2:
            return False
    if len(neighbors) == 2:
        first, second = neighbors
        # ``first`` is a path end, so its walk covers its whole path
        if second in _walk(wtpg, None, first):
            return False
    return True


def _walk(
    wtpg: WTPG, origin: typing.Optional[int], first: int
) -> typing.List[int]:
    """Nodes met walking from ``origin`` through ``first`` to a path end.

    Raises :class:`NotChainFormError` at a node of degree > 2 or when
    the walk comes back to ``origin`` (a cycle).
    """
    walked: typing.List[int] = []
    previous, current = origin, first
    while True:
        walked.append(current)
        onward = wtpg.neighbors(current)
        onward.discard(previous)
        if not onward:
            return walked
        if len(onward) > 1:
            raise NotChainFormError(f"T{current} has degree > 2")
        previous, current = current, onward.pop()
        if current == origin:
            raise NotChainFormError(f"cycle through T{origin}")


def path_through(wtpg: WTPG, txn_id: int) -> typing.List[int]:
    """The path component holding ``txn_id``, oriented as
    :func:`_component_node_orders` orients it.

    Only this component is walked and checked for chain form.  Position
    0 is the end reached by walking from the component's smallest id
    towards its smaller neighbour, so the greedy RIGHT-first
    reconstruction breaks ties as in the whole-graph solve.
    """
    neighbors = sorted(wtpg.neighbors(txn_id))
    if len(neighbors) > 2:
        raise NotChainFormError(f"T{txn_id} has degree > 2")
    before, after = ([_walk(wtpg, txn_id, n) for n in neighbors] + [[], []])[:2]
    path = before[::-1] + [txn_id] + after
    at = path.index(min(path))
    left = path[at - 1] if at > 0 else math.inf
    right = path[at + 1] if at + 1 < len(path) else math.inf
    if right < left:
        path.reverse()
    return path


def extract_components(wtpg: WTPG) -> typing.List[ChainComponent]:
    """Split a chain-form WTPG into ordered path components.

    Raises :class:`NotChainFormError` when the structure is not a union
    of paths.  The whole-graph reference for :func:`path_through`.
    """
    return [
        _build_component(wtpg, ordered)
        for ordered in _component_node_orders(wtpg)
    ]


def _component_node_orders(wtpg: WTPG) -> typing.List[typing.List[int]]:
    """Ordered node lists of each path component (structure only)."""
    adjacency = undirected_adjacency(wtpg)
    if not is_union_of_paths(adjacency):
        raise NotChainFormError(f"WTPG is not chain-form: {wtpg!r}")
    node_orders: typing.List[typing.List[int]] = []
    visited: typing.Set[int] = set()
    for start in sorted(adjacency):
        if start in visited:
            continue
        # walk to one end of the path
        end = start
        previous = None
        while True:
            nxt = [n for n in sorted(adjacency[end]) if n != previous]
            if not nxt:
                break
            previous, end = end, nxt[0]
            if end == start:  # defensive; cycles were excluded above
                raise NotChainFormError("cycle found during extraction")
        # walk the path from the end, recording order
        ordered = [end]
        visited.add(end)
        current, previous = end, None
        while True:
            nxt = [n for n in sorted(adjacency[current]) if n != previous]
            if not nxt:
                break
            previous, current = current, nxt[0]
            ordered.append(current)
            visited.add(current)
        node_orders.append(ordered)
    return node_orders


def _build_component(
    wtpg: WTPG, ordered: typing.List[int]
) -> ChainComponent:
    w0, w_right, w_left, can_right, can_left = _path_lists(wtpg, ordered)
    edges = [
        ChainEdge(
            left, right, w_right[i], w_left[i],
            _ALLOWED[can_right[i], can_left[i]],
        )
        for i, (left, right) in enumerate(zip(ordered, ordered[1:]))
    ]
    return ChainComponent(nodes=ordered, node_weights=w0, edges=edges)


#: ``ChainEdge.allowed`` by (may go RIGHT, may go LEFT)
_ALLOWED = {
    (True, True): _DIRECTIONS,
    (True, False): frozenset({RIGHT}),
    (False, True): frozenset({LEFT}),
}


#: a component as the solver reads it: the T0 weight per node, and per
#: edge the weight and whether it may be oriented RIGHT and LEFT (a
#: direction not allowed weighs nan)
_Lists = typing.Tuple[
    typing.List[float], typing.List[float], typing.List[float],
    typing.List[bool], typing.List[bool],
]


def _path_lists(wtpg: WTPG, ordered: typing.List[int]) -> _Lists:
    """The solver's lists for the path ``ordered``, read from the WTPG."""
    w_right: typing.List[float] = []
    w_left: typing.List[float] = []
    can_right: typing.List[bool] = []
    can_left: typing.List[bool] = []
    for left, right in zip(ordered, ordered[1:]):
        if wtpg.has_precedence(left, right):
            w_right.append(wtpg.precedence_weight(left, right))
            w_left.append(math.nan)
            can_right.append(True)
            can_left.append(False)
        elif wtpg.has_precedence(right, left):
            w_right.append(math.nan)
            w_left.append(wtpg.precedence_weight(right, left))
            can_right.append(False)
            can_left.append(True)
        else:
            conflict = wtpg.conflict_edge(left, right)
            w_right.append(conflict.weight(left, right))
            w_left.append(conflict.weight(right, left))
            can_right.append(True)
            can_left.append(True)
    w0 = [wtpg.t0_weight(t) for t in ordered]
    return w0, w_right, w_left, can_right, can_left


def _component_lists(component: ChainComponent) -> _Lists:
    """The solver's lists for a hand-built component."""
    edges = component.edges
    return (
        component.node_weights,
        [edge.weight_right for edge in edges],
        [edge.weight_left for edge in edges],
        [RIGHT in edge.allowed for edge in edges],
        [LEFT in edge.allowed for edge in edges],
    )


# -- optimal orientation of one component ---------------------------------------


def _candidate_values(lists: _Lists) -> typing.List[float]:
    """All possible run values: directed contiguous sub-path lengths."""
    w0, w_right, w_left, can_right, can_left = lists
    k = len(w0)
    candidates = set(w0)
    # rightward: start c, over edges c..d-1
    for c in range(k):
        total = w0[c]
        for d in range(c, k - 1):
            if not can_right[d]:
                break  # direction not allowed; longer right paths impossible
            total += w_right[d]
            candidates.add(total)
    # leftward: start c, descending over edges c-1..d
    for c in range(k - 1, -1, -1):
        total = w0[c]
        for d in range(c - 1, -1, -1):
            if not can_left[d]:
                break
            total += w_left[d]
            candidates.add(total)
    return sorted(candidates)


#: the feasibility DP's state after some prefix of edges: the minimal
#: height of an open RIGHT run and the minimal ``cum`` of an open LEFT
#: run, each None when no orientation of the prefix ends in one
_State = typing.Tuple[typing.Optional[float], typing.Optional[float]]

#: tolerance of the threshold test ``run value <= theta``
_EPS = 1e-9


def _start(lists: _Lists) -> _State:
    """The state before edge 0: node 0 alone, as an open RIGHT run."""
    return lists[0][0], None


def _advance(
    lists: _Lists, bound: float, state: _State, start: int, stop: int
) -> typing.Optional[_State]:
    """Carry the feasibility DP across edges ``start..stop-1``.

    Returns None as soon as no orientation of those edges keeps every
    run value <= ``bound``.

    An open LEFT run ending at node ``i+1`` is summed up by ``cum``, its
    edge weights so far: continuing it over edge ``i+1`` gives node
    ``i+2`` the value ``w0[i+2] + cum + w_left[i+1]``.  One scalar, the
    smallest ``cum``, decides every future test.  The run's value so far
    is already <= ``bound`` (a state exceeding it is dropped), so a
    continuation passes exactly when its new node's value does.  That
    value grows with ``cum``, because float addition is monotone.  And
    closing the run asks only whether one exists.  A LEFT run opened
    from an open RIGHT run still tests its left node, ``w0[i]``: at edge
    0 that node is the start state, whose weight no test has bounded
    yet.
    """
    w0, w_right, w_left, can_right, can_left = lists
    right_state, left_cum = state
    for i in range(start, stop):
        new_right: typing.Optional[float] = None
        new_left: typing.Optional[float] = None
        node_w = w0[i + 1]
        if can_right[i]:
            weight_right = w_right[i]
            if right_state is not None:  # continue the R run
                h = right_state + weight_right
                if h < node_w:
                    h = node_w
                if h <= bound:
                    new_right = h
            if left_cum is not None:  # close the L run, open R
                h = w0[i] + weight_right
                if h < node_w:
                    h = node_w
                if h <= bound and (new_right is None or h < new_right):
                    new_right = h
        if can_left[i]:
            weight_left = w_left[i]
            if left_cum is not None:  # continue the L run
                cum = left_cum + weight_left
                if node_w + cum <= bound:
                    new_left = cum
            if right_state is not None:  # close the R run, open L
                if node_w + weight_left <= bound and w0[i] <= bound and (
                    new_left is None or weight_left < new_left
                ):
                    new_left = weight_left
        if new_right is None and new_left is None:
            return None
        right_state, left_cum = new_right, new_left
    return right_state, left_cum


def _feasible(lists: _Lists, theta: float) -> bool:
    """Is there an orientation with every run value <= theta?"""
    w0 = lists[0]
    bound = theta + _EPS
    if len(w0) == 1:
        return w0[0] <= bound
    return _advance(lists, bound, _start(lists), 0, len(w0) - 1) is not None


def _solve(
    lists: _Lists, count: int
) -> typing.Tuple[float, typing.List[str]]:
    """Optimal critical-path value and the directions of edges
    ``0..count-1`` in the greedy RIGHT-first optimal orientation."""
    w0 = lists[0]
    if len(w0) == 1:
        return w0[0], []
    candidates = _candidate_values(lists)
    lo, hi = 0, len(candidates) - 1
    if not _feasible(lists, candidates[hi]):
        raise RuntimeError(
            "no feasible orientation at the maximal candidate -- "
            "this should be impossible for a path"
        )
    while lo < hi:
        mid = (lo + hi) // 2
        if _feasible(lists, candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    theta = candidates[lo]

    # Greedy reconstruction: orient each free edge RIGHT when the rest
    # can still be oriented within theta, else LEFT.  ``state`` is the
    # DP state of the prefix oriented so far, so each test runs one
    # step and the suffix.
    w0, w_right, w_left, can_right, can_left = lists
    can_right, can_left = list(can_right), list(can_left)
    narrowed = (w0, w_right, w_left, can_right, can_left)
    bound = theta + _EPS
    last = len(w0) - 1
    state: typing.Optional[_State] = _start(lists)
    directions: typing.List[str] = []
    for i in range(count):
        if can_right[i] and can_left[i]:
            can_left[i] = False
            stepped = _advance(narrowed, bound, state, i, i + 1)
            if (
                stepped is None
                or _advance(narrowed, bound, stepped, i + 1, last) is None
            ):
                can_left[i], can_right[i] = True, False
                stepped = _advance(narrowed, bound, state, i, i + 1)
            state = stepped
        else:
            state = _advance(narrowed, bound, state, i, i + 1)
        assert state is not None, "reconstruction failed"
        directions.append(RIGHT if can_right[i] else LEFT)
    assert _advance(narrowed, bound, state, count, last) is not None, (
        "reconstruction failed"
    )
    return theta, directions


def solve_component(
    component: ChainComponent,
    last_edge: typing.Optional[int] = None,
) -> typing.Tuple[float, typing.List[str]]:
    """Optimal critical-path value and one achieving orientation.

    Returns ``(value, directions)`` with one direction (RIGHT/LEFT) per
    edge.  For a single-node component the direction list is empty.
    ``last_edge`` stops the reconstruction after that edge index: each
    greedy choice depends only on the edges before it, so the directions
    returned are those of the full reconstruction, truncated.
    """
    count = len(component.edges) if last_edge is None else last_edge + 1
    return _solve(_component_lists(component), count)


def brute_force_component(
    component: ChainComponent,
) -> typing.Tuple[float, typing.List[str]]:
    """Exponential reference solver (tests and tiny components only)."""
    best_value = math.inf
    best_dirs: typing.List[str] = []
    edge_choices = [sorted(edge.allowed) for edge in component.edges]
    for directions in itertools.product(*edge_choices):
        value = _orientation_value(component, list(directions))
        if value < best_value:
            best_value = value
            best_dirs = list(directions)
    return best_value, best_dirs


def _orientation_value(
    component: ChainComponent, directions: typing.List[str]
) -> float:
    """Critical-path value of a fully-oriented component."""
    w0 = component.node_weights
    k = len(component.nodes)
    best = max(w0)
    # longest directed path ending at each node, scanning both directions
    dist_right = list(w0)  # longest path ending at i arriving rightward
    for i, direction in enumerate(directions):
        if direction == RIGHT:
            weight = component.edges[i].weight_right
            dist_right[i + 1] = max(
                w0[i + 1], dist_right[i] + weight
            )
            best = max(best, dist_right[i + 1])
    dist_left = list(w0)
    for i in range(k - 2, -1, -1):
        if directions[i] == LEFT:
            weight = component.edges[i].weight_left
            dist_left[i] = max(w0[i], dist_left[i + 1] + weight)
            best = max(best, dist_left[i])
    return best


# -- the full serializable order W ------------------------------------------------


class SerializableOrder:
    """W: an orientation for the edges of a chain-form WTPG.

    ``critical_path`` is the optimal critical-path value: over the whole
    graph, or -- from ``compute_optimal_order(wtpg, around=t)`` -- over
    t's component only, with only the edges up to t's oriented.
    """

    def __init__(
        self,
        orientations: typing.Mapping[typing.FrozenSet[int], typing.Tuple[int, int]],
        critical_path: float,
    ) -> None:
        self._orientations = dict(orientations)
        self.critical_path = critical_path

    def direction(self, i: int, j: int) -> typing.Tuple[int, int]:
        """The (src, dst) W assigns to the edge between i and j."""
        return self._orientations[frozenset((i, j))]

    def consistent_with_fix(self, i: int, j: int) -> bool:
        """Would fixing precedence i -> j agree with W?

        Pairs W never saw (no edge between them) are vacuously
        consistent.
        """
        key = frozenset((i, j))
        if key not in self._orientations:
            return True
        return self._orientations[key] == (i, j)


def compute_optimal_order(
    wtpg: WTPG, around: typing.Optional[int] = None
) -> SerializableOrder:
    """GOW Phase 2: the full serializable order minimising the critical path.

    Components are independent: the global critical path is the max over
    components, each minimised separately.  ``around`` solves only that
    transaction's component, up to its right-hand edge -- every edge a
    grant to it can fix, oriented exactly as the whole-graph call does.
    """
    if around is None:
        paths = [
            (ordered, len(ordered) - 1)
            for ordered in _component_node_orders(wtpg)
        ]
    else:
        ordered = path_through(wtpg, around)
        paths = [(ordered, min(ordered.index(around), len(ordered) - 2) + 1)]
    orientations: typing.Dict[
        typing.FrozenSet[int], typing.Tuple[int, int]
    ] = {}
    worst = 0.0
    for ordered, count in paths:
        value, directions = _solve(_path_lists(wtpg, ordered), count)
        worst = max(worst, value)
        for i, direction in enumerate(directions):
            left, right = ordered[i], ordered[i + 1]
            if direction == RIGHT:
                orientations[frozenset((left, right))] = (left, right)
            else:
                orientations[frozenset((left, right))] = (right, left)
    return SerializableOrder(orientations, worst)
