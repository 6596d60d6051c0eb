"""The Weighted Transaction-Precedence Graph (WTPG) of Section 3.1.

Nodes are the active (declared, uncommitted) transactions plus the virtual
initial transaction T0 (and conceptually the final Tf, whose edges all
weigh 0 and are never materialised, as in the paper).

Edges between two general transactions Ti, Tj that declared conflicting
accesses start as an undirected *conflict edge* (Ti, Tj).  When the
serializable order between them becomes determined the conflict edge is
replaced by a directed *precedence edge* Ti -> Tj.

Weights (fixed at declaration time, per the paper):

- ``w(Ti -> Tj)``: the I/O Tj must still access from its first step that
  conflicts with Ti through its commitment -- the remaining work of Tj
  once Ti stops blocking it.
- ``w(T0 -> Ti)``: Ti's remaining declared I/O *now*; this is the only
  weight that is adjusted as the schedule proceeds, so it is computed on
  demand from the transaction's live progress.

The critical path is the longest T0-to-Tf path over precedence edges.

Scale notes.  Under overload an MPL-unlimited scheduler (plain C2PL in
Fig. 8's unstable region) accumulates thousands of active transactions,
so this structure maintains everything incrementally:

- per-file reader/writer indexes make conflict discovery at declaration
  O(conflicting pairs) instead of O(all pairs);
- successor/predecessor adjacency is maintained, never rebuilt;
- every node carries a *topological level* with the invariant
  ``level(u) < level(v)`` for each precedence edge u -> v, so cycle and
  path queries prune to the (usually tiny) level window between the two
  endpoints -- the classic incremental-cycle-detection bound.

Incremental maintenance invariants (the kernel-speed campaign):

- ``_longest[t]`` is the *suffix distance* L(t): the largest sum of
  precedence-edge weights along any directed path starting at t, i.e.
  ``L(t) = max(0, max over successors s of w(t -> s) + L(s))``.  Because
  precedence-edge weights are fixed at declaration time, L only changes
  when an edge is inserted (:meth:`apply_fix` raises ancestors along
  ``w + L(target)``) or a node is removed (:meth:`remove_transaction`
  recomputes affected ancestors deepest-level-first).  The critical path
  is then ``max over t of t0_weight(t) + L(t)`` with no per-call graph
  traversal; only the drifting T0 weights are read fresh.  The maintained
  values are bit-exact against a backward recompute because every stored
  L is literally ``w + L(succ)`` for some successor whose own L satisfies
  the same property (``check_invariants`` asserts this).
- Acyclicity is certified by the maintained levels: if
  ``level(i) < level(j)`` holds for every precedence edge, the graph is
  provably acyclic, so :meth:`critical_path_length` replaces its old
  Kahn toposort with a single O(E) certificate scan (returning ``inf``
  when the certificate fails, preserving the deadlock contract).
- Hypothetical evaluation (LOW's E function) never mutates the graph.
  Let A be the requester T and its ancestors, D the fix targets and
  their descendants.  The grant and its transitive propagation orient
  exactly the conflict edges between A and D, from the A side, so only
  suffix distances in A can rise.  :meth:`grant_raise` walks A
  deepest-level first, taking ``L'(x)`` as the maximum of ``L(x)``,
  ``w(x -> s) + L'(s)`` over raised successors and ``w(x -> j) + L(j)``
  over conflict neighbours j in D -- the same floats the applied grant
  would store.  E is the current critical path maxed with ``t0 + L'``
  over the raised nodes, reading each T0 weight at most once per
  decision.
- Transitive propagation is restricted to candidates that a *new* edge
  could force: any new path i ~> j passes through a just-inserted edge
  (s, t) with i an ancestor of s and j a descendant of t, so
  ``propagate_transitive_fixes(touched=...)`` scans only conflict edges
  whose endpoints fall in those ancestor/descendant closures.  This is
  complete in one sweep because propagation's own fixes parallel
  existing paths and never change reachability.
"""

from __future__ import annotations

import heapq
import math
import typing

from repro.txn.transaction import BatchTransaction


class ConflictEdge(typing.NamedTuple):
    """Undetermined serialization order between two transactions.

    ``weight_ab`` is the weight the edge would carry if oriented a -> b
    (and symmetrically for ``weight_ba``); both are fixed when the later
    transaction declares itself.
    """

    a: int
    b: int
    weight_ab: float
    weight_ba: float

    def weight(self, src: int, dst: int) -> float:
        if (src, dst) == (self.a, self.b):
            return self.weight_ab
        if (src, dst) == (self.b, self.a):
            return self.weight_ba
        raise KeyError(f"edge ({self.a},{self.b}) asked for ({src},{dst})")


class WTPG:
    """Weighted transaction-precedence graph over active transactions."""

    def __init__(self) -> None:
        self._txns: typing.Dict[int, BatchTransaction] = {}
        #: undetermined edges keyed by frozenset({i, j}); weights are
        #: computed lazily (None until first read) -- C2PL never reads
        #: them, and eager computation is O(pairs) per declaration
        self._conflicts: typing.Dict[
            typing.FrozenSet[int], typing.Optional[ConflictEdge]
        ] = {}
        #: determined edges (i, j) -> weight of i -> j
        self._precedence: typing.Dict[typing.Tuple[int, int], float] = {}
        #: maintained adjacency over precedence edges
        self._succ: typing.Dict[int, typing.Set[int]] = {}
        self._pred: typing.Dict[int, typing.Set[int]] = {}
        #: maintained adjacency over conflict edges
        self._conflict_adj: typing.Dict[int, typing.Set[int]] = {}
        #: per-file declared readers/writers (conflict discovery index)
        self._readers: typing.Dict[int, typing.Set[int]] = {}
        self._writers: typing.Dict[int, typing.Set[int]] = {}
        #: topological level: level(u) < level(v) for every edge u -> v
        self._level: typing.Dict[int, int] = {}
        #: maintained suffix distance L(t) over precedence edges
        self._longest: typing.Dict[int, float] = {}

    # -- membership ------------------------------------------------------------

    def __contains__(self, txn_id: int) -> bool:
        return txn_id in self._txns

    def __len__(self) -> int:
        return len(self._txns)

    @property
    def txn_ids(self) -> typing.List[int]:
        return sorted(self._txns)

    def transaction(self, txn_id: int) -> BatchTransaction:
        return self._txns[txn_id]

    def conflict_opponents(self, txn: BatchTransaction) -> typing.Set[int]:
        """Active transactions whose declarations conflict with ``txn``'s.

        ``txn`` need not be in the graph (declaration-time discovery and
        GOW's admission test share this index lookup).
        """
        opponents: typing.Set[int] = set()
        writers = self._writers
        readers = self._readers
        write_set = txn.write_set
        for file_id in txn.files:
            held = writers.get(file_id)
            if held:
                opponents |= held
            if file_id in write_set:
                held = readers.get(file_id)
                if held:
                    opponents |= held
        opponents.discard(txn.txn_id)
        return opponents

    def add_transaction(self, txn: BatchTransaction) -> None:
        """Declare ``txn``: add its node and conflict edges vs all actives."""
        if txn.txn_id in self._txns:
            raise ValueError(f"T{txn.txn_id} already in WTPG")
        for other_id in self.conflict_opponents(txn):
            self._conflicts[frozenset((other_id, txn.txn_id))] = None
            self._conflict_adj.setdefault(other_id, set()).add(txn.txn_id)
            self._conflict_adj.setdefault(txn.txn_id, set()).add(other_id)
        self._txns[txn.txn_id] = txn
        self._succ.setdefault(txn.txn_id, set())
        self._pred.setdefault(txn.txn_id, set())
        self._conflict_adj.setdefault(txn.txn_id, set())
        self._level.setdefault(txn.txn_id, 0)
        self._longest.setdefault(txn.txn_id, 0.0)
        for file_id in txn.files:
            index = self._writers if txn.writes(file_id) else self._readers
            index.setdefault(file_id, set()).add(txn.txn_id)

    def remove_transaction(self, txn_id: int) -> None:
        """Drop a committed/aborted transaction and its incident edges.

        Other nodes' levels stay valid: removing edges only relaxes the
        level invariant.  Suffix distances of the (former) predecessors
        can only shrink and are recomputed deepest-level-first.
        """
        txn = self._txns.pop(txn_id, None)
        if txn is None:
            raise KeyError(f"T{txn_id} not in WTPG")
        for other_id in self._conflict_adj.pop(txn_id, set()):
            self._conflicts.pop(frozenset((txn_id, other_id)), None)
            self._conflict_adj[other_id].discard(txn_id)
        for succ in self._succ.pop(txn_id, set()):
            self._pred[succ].discard(txn_id)
            del self._precedence[(txn_id, succ)]
        preds = self._pred.pop(txn_id, set())
        for pred in preds:
            self._succ[pred].discard(txn_id)
            del self._precedence[(pred, txn_id)]
        for file_id in txn.files:
            index = self._writers if txn.writes(file_id) else self._readers
            holders = index.get(file_id)
            if holders is not None:
                holders.discard(txn_id)
                if not holders:
                    del index[file_id]
        self._level.pop(txn_id, None)
        self._longest.pop(txn_id, None)
        if preds:
            self._lower_longest(preds)

    @staticmethod
    def _blocked_weight(
        blocker: BatchTransaction, blocked: BatchTransaction
    ) -> float:
        """w(blocker -> blocked): blocked's I/O from its blocked step on."""
        step = blocked.blocked_step_against(blocker)
        return blocked.declared_cost_from_step(step)

    # -- edge queries --------------------------------------------------------

    def conflict_edges(self) -> typing.List[ConflictEdge]:
        return [self._materialise(key) for key in list(self._conflicts)]

    def conflict_pairs(self) -> typing.List[typing.Tuple[int, int]]:
        """Endpoint pairs of all conflict edges, *without* materialising
        the lazy weights -- the accessor for topology-only callers."""
        return [tuple(sorted(key)) for key in self._conflicts]

    def has_conflict_edge(self, i: int, j: int) -> bool:
        return frozenset((i, j)) in self._conflicts

    def conflict_edge(self, i: int, j: int) -> ConflictEdge:
        key = frozenset((i, j))
        if key not in self._conflicts:
            raise KeyError(f"no conflict edge between T{i} and T{j}")
        return self._materialise(key)

    def _materialise(self, key: typing.FrozenSet[int]) -> ConflictEdge:
        """Compute (once) the weights of a lazily-created conflict edge."""
        edge = self._conflicts[key]
        if edge is None:
            a, b = sorted(key)
            ta, tb = self._txns[a], self._txns[b]
            edge = ConflictEdge(
                a=a,
                b=b,
                weight_ab=self._blocked_weight(blocker=ta, blocked=tb),
                weight_ba=self._blocked_weight(blocker=tb, blocked=ta),
            )
            self._conflicts[key] = edge
        return edge

    def precedence_edges(self) -> typing.Dict[typing.Tuple[int, int], float]:
        return dict(self._precedence)

    def has_precedence(self, i: int, j: int) -> bool:
        return (i, j) in self._precedence

    def precedence_weight(self, i: int, j: int) -> float:
        """Weight of the determined edge i -> j (KeyError when absent)."""
        return self._precedence[(i, j)]

    def neighbors(self, txn_id: int) -> typing.Set[int]:
        """Transactions joined to ``txn_id`` by any (conflict or
        precedence) edge -- the adjacency the chain-form test inspects."""
        return (
            self._conflict_adj.get(txn_id, set())
            | self._succ.get(txn_id, set())
            | self._pred.get(txn_id, set())
        )

    def degree(self, txn_id: int) -> int:
        """Undirected degree over conflict + precedence edges (O(1);
        the three incident sets are disjoint in an acyclic graph)."""
        return (
            len(self._conflict_adj.get(txn_id, ()))
            + len(self._succ.get(txn_id, ()))
            + len(self._pred.get(txn_id, ()))
        )

    def t0_weight(self, txn_id: int) -> float:
        """w(T0 -> Ti): remaining declared I/O of the transaction now."""
        return self._txns[txn_id].remaining_declared_cost()

    def level_of(self, txn_id: int) -> int:
        """The node's maintained topological level (for tests/metrics)."""
        return self._level[txn_id]

    # -- grant-driven precedence fixing ----------------------------------------

    def conflicting_declarers(
        self, txn_id: int, file_id: int
    ) -> typing.List[int]:
        """Active transactions whose declared access to the file
        conflicts with ``txn_id``'s declared access to it."""
        txn = self._txns[txn_id]
        return sorted(
            self.declared_conflicters(
                file_id, txn.mode_for(file_id), exclude=txn_id
            )
        )

    def declared_conflicters(
        self,
        file_id: int,
        mode: "typing.Any",
        exclude: typing.Optional[int] = None,
    ) -> typing.Set[int]:
        """Ids of active transactions whose declared access to ``file_id``
        conflicts with an access in ``mode`` (index lookup: declared
        writers always conflict; declared readers only against a write)."""
        opponents = set(self._writers.get(file_id, ()))
        if mode.is_write:
            readers = self._readers.get(file_id)
            if readers:
                opponents |= readers
        if exclude is not None:
            opponents.discard(exclude)
        return opponents

    def declared_conflict_count(self, txn_id: int, file_id: int) -> int:
        """|C(p)| for the declared access of active ``txn_id`` on the file.

        Size of :meth:`declared_conflicters` for that access without
        building the set: the per-file writer and reader indexes are
        disjoint, so the union size is plain arithmetic.  A declared
        writer conflicts with every other declarer; a declared reader
        only with the writers.
        """
        writers = self._writers.get(file_id)
        nwriters = len(writers) if writers else 0
        if writers and txn_id in writers:
            readers = self._readers.get(file_id)
            return nwriters - 1 + (len(readers) if readers else 0)
        return nwriters

    def fixes_for_grant(
        self, txn_id: int, file_id: int
    ) -> typing.List[typing.Tuple[int, int]]:
        """Precedence determinations implied by granting ``file_id`` to T.

        Granting puts T's access to the file before every other declared
        conflicting access, so the serialization order T -> other becomes
        determined for every active transaction with a conflicting
        declaration on the file.  Pairs already determined in the *other*
        direction are included too: for them the returned "fix" is a
        contradiction that :meth:`creates_cycle` reports as a deadlock.
        """
        return [
            (txn_id, other_id)
            for other_id in self.conflicting_declarers(txn_id, file_id)
            if (txn_id, other_id) not in self._precedence
        ]

    def creates_cycle(
        self, fixes: typing.Iterable[typing.Tuple[int, int]]
    ) -> bool:
        """Would adding these precedence edges create a cycle (deadlock)?

        Grant-driven fixes all share one source T: the (acyclic) graph
        gains a cycle iff some fix target already reaches T.  The level
        invariant prunes the search: a path j ~> T needs
        ``level(j) < level(T)`` and only passes through levels below
        T's.  Mixed-source fix sets fall back to a full cycle test.
        """
        extra = list(fixes)
        if not extra:
            return False
        sources = {i for i, _ in extra}
        if len(sources) == 1:
            (source,) = sources
            targets = {j for _, j in extra}
            if source in targets:
                return True
            return self._any_reaches(targets, source)
        adjacency = {node: set(succ) for node, succ in self._succ.items()}
        for i, j in extra:
            adjacency.setdefault(i, set()).add(j)
        return self._has_cycle(adjacency)

    def _any_reaches(self, starts: typing.Set[int], goal: int) -> bool:
        """Is there a precedence path from any of ``starts`` to ``goal``?"""
        goal_level = self._level[goal]
        stack = [s for s in starts if self._level.get(s, 0) < goal_level]
        seen = set(stack)
        while stack:
            node = stack.pop()
            for nxt in self._succ.get(node, ()):
                if nxt == goal:
                    return True
                if nxt not in seen and self._level[nxt] < goal_level:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def apply_fix(self, i: int, j: int) -> None:
        """Replace conflict edge (i, j) by precedence edge i -> j."""
        key = frozenset((i, j))
        if key not in self._conflicts:
            if (i, j) in self._precedence:
                return  # already determined in this direction
            raise KeyError(f"no conflict edge between T{i} and T{j}")
        edge = self._materialise(key)
        del self._conflicts[key]
        self._conflict_adj[i].discard(j)
        self._conflict_adj[j].discard(i)
        weight = edge.weight(i, j)
        self._precedence[(i, j)] = weight
        self._succ.setdefault(i, set()).add(j)
        self._pred.setdefault(j, set()).add(i)
        self._raise_level(i, j)
        self._raise_longest(i, weight + self._longest[j])

    def _raise_level(self, source: int, target: int) -> None:
        """Restore ``level(u) < level(v)`` after adding source -> target.

        Standard forward relabelling; callers must have excluded cycles
        (a cycle would send the walk back into ``source``, which raises).
        """
        if self._level[target] > self._level[source]:
            return
        self._level[target] = self._level[source] + 1
        stack = [target]
        while stack:
            node = stack.pop()
            node_level = self._level[node]
            for nxt in self._succ.get(node, ()):
                if self._level[nxt] <= node_level:
                    if nxt == source:
                        raise ValueError(
                            f"precedence cycle through T{source} -> T{target}"
                        )
                    self._level[nxt] = node_level + 1
                    stack.append(nxt)

    def _raise_longest(self, node: int, candidate: float) -> None:
        """Propagate a new suffix-distance candidate up the ancestors."""
        longest = self._longest
        precedence = self._precedence
        stack = [(node, candidate)]
        while stack:
            n, cand = stack.pop()
            if cand <= longest[n]:
                continue
            longest[n] = cand
            for p in self._pred.get(n, ()):
                stack.append((p, precedence[(p, n)] + cand))

    def _lower_longest(self, seeds: typing.Iterable[int]) -> None:
        """Recompute suffix distances that may have shrunk.

        Processes deepest level first so every successor is final before
        its predecessors are recomputed; propagation stops where the
        recomputed value is unchanged.
        """
        longest = self._longest
        level = self._level
        pending = {n for n in seeds if n in longest}
        heap = [(-level[n], n) for n in pending]
        heapq.heapify(heap)
        while heap:
            _, node = heapq.heappop(heap)
            if node not in pending:
                continue
            pending.discard(node)
            best = 0.0
            for s in self._succ.get(node, ()):
                cand = self._precedence[(node, s)] + longest[s]
                if cand > best:
                    best = cand
            if best != longest[node]:
                longest[node] = best
                for p in self._pred.get(node, ()):
                    if p not in pending:
                        pending.add(p)
                        heapq.heappush(heap, (-level[p], p))

    def propagate_transitive_fixes(
        self,
        touched: typing.Optional[
            typing.Iterable[typing.Tuple[int, int]]
        ] = None,
    ) -> typing.List[typing.Tuple[int, int]]:
        """Resolve conflict edges forced by existing precedence paths.

        When a precedence path Ti ~> Tj exists, the conflict edge (Ti, Tj)
        can only legally be oriented Ti -> Tj (Fig. 6's T4 -> T7 example);
        fix all such edges.  Returns the fixes applied.

        ``touched`` (the just-inserted precedence edges) restricts the
        sweep: a conflict edge can only be *newly* forced along a path
        through one of those edges, so only pairs with one endpoint among
        the new sources' ancestors and the other among the new targets'
        descendants are candidates.  Callers that kept the graph
        propagated (every grant/declaration since the last sweep) get the
        identical applied list in a single sweep; ``touched=None`` runs
        the original full fixpoint scan.
        """
        if touched is not None:
            return self._propagate_touched(list(touched))
        applied = []
        changed = True
        while changed:
            changed = False
            for key in list(self._conflicts):
                if key not in self._conflicts:
                    continue  # resolved by an earlier fix this sweep
                i, j = tuple(key)
                if self.has_path(i, j):
                    self.apply_fix(i, j)
                    applied.append((i, j))
                    changed = True
                elif self.has_path(j, i):
                    self.apply_fix(j, i)
                    applied.append((j, i))
                    changed = True
        return applied

    def _propagate_touched(
        self, new_edges: typing.List[typing.Tuple[int, int]]
    ) -> typing.List[typing.Tuple[int, int]]:
        """One restricted sweep over conflict edges a new path could force."""
        if not new_edges or not self._conflicts:
            return []
        above = self._closure({i for i, _ in new_edges}, self._pred)
        below = self._closure({j for _, j in new_edges}, self._succ)
        applied = []
        for key in list(self._conflicts):
            i, j = tuple(key)
            if i in above and j in below and self.has_path(i, j):
                self.apply_fix(i, j)
                applied.append((i, j))
            elif j in above and i in below and self.has_path(j, i):
                self.apply_fix(j, i)
                applied.append((j, i))
        return applied

    @staticmethod
    def _closure(
        starts: typing.Set[int],
        adjacency: typing.Dict[int, typing.Set[int]],
    ) -> typing.Set[int]:
        """``starts`` plus everything reachable through ``adjacency``."""
        seen = set(starts)
        stack = list(starts)
        while stack:
            node = stack.pop()
            for nxt in adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def grant(
        self,
        txn_id: int,
        file_id: int,
        propagate: bool = True,
        fixes: typing.Optional[typing.List[typing.Tuple[int, int]]] = None,
        precheck: bool = True,
    ) -> typing.List[typing.Tuple[int, int]]:
        """Apply all precedence consequences of a lock grant.

        Returns the fixes applied (direct + transitive).  Raises if the
        grant would create a cycle -- schedulers must test first.

        ``propagate=False`` skips the transitive conflict-edge resolution:
        schedulers that never read edge weights (C2PL) can resolve those
        edges lazily -- a later grant against a forced order still fails
        the cycle test -- and skipping keeps large graphs affordable.

        ``fixes``/``precheck`` let a scheduler that already computed the
        fix list and ran the cycle test (atomically, with no intervening
        yields) skip the recomputation.
        """
        if fixes is None:
            fixes = self.fixes_for_grant(txn_id, file_id)
        if precheck and self.creates_cycle(fixes):
            raise ValueError(
                f"granting F{file_id} to T{txn_id} creates a precedence cycle"
            )
        for i, j in fixes:
            self.apply_fix(i, j)
        if not propagate:
            return fixes
        return fixes + self.propagate_transitive_fixes(touched=fixes)

    # -- path / cycle machinery ---------------------------------------------

    def has_path(self, src: int, dst: int) -> bool:
        """Is there a directed precedence path src ~> dst?"""
        if src == dst:
            return True
        if self._level.get(src, 0) >= self._level.get(dst, 0):
            return False
        return self._any_reaches({src}, dst)

    @staticmethod
    def _has_cycle(adjacency: typing.Dict[int, typing.Set[int]]) -> bool:
        WHITE, GREY, BLACK = 0, 1, 2
        colour: typing.Dict[int, int] = {}
        nodes = set(adjacency)
        for targets in adjacency.values():
            nodes |= targets

        # iterative DFS (overloaded graphs are deeper than the C stack)
        def visit(root: int) -> bool:
            stack: typing.List[typing.Tuple[int, typing.Iterator[int]]] = [
                (root, iter(adjacency.get(root, ())))
            ]
            colour[root] = GREY
            while stack:
                node, children = stack[-1]
                advanced = False
                for nxt in children:
                    state = colour.get(nxt, WHITE)
                    if state == GREY:
                        return True
                    if state == WHITE:
                        colour[nxt] = GREY
                        stack.append((nxt, iter(adjacency.get(nxt, ()))))
                        advanced = True
                        break
                if not advanced:
                    colour[node] = BLACK
                    stack.pop()
            return False

        return any(
            colour.get(node, WHITE) == WHITE and visit(node) for node in nodes
        )

    def critical_path_length(
        self, t0: typing.Optional[typing.Dict[int, float]] = None
    ) -> float:
        """Longest T0-to-Tf path over precedence edges (conflicts ignored).

        Returns ``inf`` when the precedence edges contain a cycle (a state
        the schedulers treat as deadlock).  The maintained levels certify
        acyclicity in one O(E) scan -- ``level(i) < level(j)`` for every
        edge proves there is no cycle -- and the maintained suffix
        distances reduce the longest path to one pass over the (drifting)
        T0 weights.  ``t0`` is :meth:`grant_raise`'s per-decision cache
        of those weights, read and filled here.
        """
        level = self._level
        for i, j in self._precedence:
            if level[i] >= level[j]:
                return math.inf
        if t0 is None:
            t0 = {}
        longest = self._longest
        best = 0.0
        for txn_id in self._txns:
            weight = t0.get(txn_id)
            if weight is None:
                weight = t0[txn_id] = self.t0_weight(txn_id)
            value = weight + longest[txn_id]
            if value > best:
                best = value
        return best

    def _recompute_longest(self) -> typing.Dict[int, float]:
        """Reference backward recompute of all suffix distances."""
        result: typing.Dict[int, float] = {}
        for node in sorted(self._txns, key=self._level.__getitem__, reverse=True):
            best = 0.0
            for s in self._succ.get(node, ()):
                cand = self._precedence[(node, s)] + result[s]
                if cand > best:
                    best = cand
            result[node] = best
        return result

    # -- hypothetical evaluation (LOW's E function) -----------------------------

    def hypothetical_grant_critical_path(
        self, txn_id: int, file_id: int
    ) -> float:
        """E(q) of Fig. 5: critical path after granting q, or inf on deadlock.

        ``max(critical path now, r)`` for the ``r`` of :meth:`grant_raise`;
        the graph is not changed.
        """
        t0: typing.Dict[int, float] = {}
        raised, _ = self.grant_raise(txn_id, file_id, t0)
        if math.isinf(raised):
            return raised
        return max(self.critical_path_length(t0), raised)

    def grant_raise(
        self, txn_id: int, file_id: int, t0: typing.Dict[int, float]
    ) -> typing.Tuple[float, typing.List[typing.Tuple[int, int]]]:
        """How granting ``file_id`` to T would lengthen the critical path.

        Returns ``(r, fixes)``: ``fixes`` is :meth:`fixes_for_grant`'s
        list and ``r`` the largest ``t0(x) + L'(x)`` over the nodes x
        whose suffix distance the grant (with its transitive
        propagation) would raise -- ``inf`` when the grant deadlocks,
        0.0 when it raises nothing.  E(q) is ``max(critical path, r)``,
        so for two requests ``E(q) > E(p)`` iff ``r_q > r_p`` and
        ``r_q`` exceeds the current critical path.  ``t0`` caches T0
        weights across the evaluations of one atomic decision, each read
        at most once through :meth:`t0_weight`.  The graph is not
        changed.
        """
        fixes = self.fixes_for_grant(txn_id, file_id)
        if not fixes:
            return 0.0, fixes
        below = self._closure({j for _, j in fixes}, self._succ)
        if txn_id in below:  # a target reaches T: :meth:`creates_cycle`
            return math.inf, fixes
        # the grant and its propagation orient exactly the conflict
        # edges between ``above`` (A) and ``below`` (D), from A
        above = self._closure({txn_id}, self._pred)
        level = self._level
        longest = self._longest
        succ = self._succ
        precedence = self._precedence
        conflict_adj = self._conflict_adj
        raised: typing.Dict[int, float] = {}
        best = 0.0
        for node in sorted(above, key=level.__getitem__, reverse=True):
            old = value = longest[node]
            for s in succ[node]:
                if s in raised:
                    cand = precedence[(node, s)] + raised[s]
                    if cand > value:
                        value = cand
            for j in conflict_adj[node]:
                if j in below:
                    edge = self._materialise(frozenset((node, j)))
                    cand = edge.weight(node, j) + longest[j]
                    if cand > value:
                        value = cand
            if value > old:
                raised[node] = value
                weight = t0.get(node)
                if weight is None:
                    weight = t0[node] = self.t0_weight(node)
                total = weight + value
                if total > best:
                    best = total
        return best, fixes

    def _scratch_copy(self) -> "WTPG":
        """Copy sharing transactions but with private edge/level state.

        Subclass-aware: extension WTPGs (e.g. the resource-aware variant)
        keep their extra weighting state in hypothetical evaluations.
        Kept as the reference evaluation path (tests compare
        :meth:`grant_raise` against grants applied to a copy).
        """
        copy = type(self).__new__(type(self))
        copy.__dict__.update(self.__dict__)
        copy._txns = dict(self._txns)
        copy._conflicts = dict(self._conflicts)
        copy._precedence = dict(self._precedence)
        copy._succ = {k: set(v) for k, v in self._succ.items()}
        copy._pred = {k: set(v) for k, v in self._pred.items()}
        copy._conflict_adj = {
            k: set(v) for k, v in self._conflict_adj.items()
        }
        copy._readers = {k: set(v) for k, v in self._readers.items()}
        copy._writers = {k: set(v) for k, v in self._writers.items()}
        copy._level = dict(self._level)
        copy._longest = dict(self._longest)
        return copy

    def check_invariants(self) -> None:
        """Assert internal consistency (test hook).

        Verifies adjacency mirrors the edge dicts, that every precedence
        edge satisfies the level invariant, and that the maintained
        suffix distances match a full backward recompute bit-for-bit.
        """
        for (i, j) in self._precedence:
            assert j in self._succ.get(i, set()), (i, j)
            assert i in self._pred.get(j, set()), (i, j)
            assert self._level[i] < self._level[j], (
                i,
                j,
                self._level[i],
                self._level[j],
            )
        for key in self._conflicts:
            i, j = tuple(key)
            assert j in self._conflict_adj.get(i, set())
            assert i in self._conflict_adj.get(j, set())
        for node, succ in self._succ.items():
            for s in succ:
                assert (node, s) in self._precedence
        reference = self._recompute_longest()
        for node, expected in reference.items():
            assert self._longest[node] == expected, (
                node,
                self._longest[node],
                expected,
            )

    def __repr__(self) -> str:
        return (
            f"<WTPG txns={len(self._txns)} conflicts={len(self._conflicts)} "
            f"precedence={len(self._precedence)}>"
        )
