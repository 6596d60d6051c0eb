"""Data placement: files, home nodes and declustering.

The paper's rule (Section 4.1): file ``f`` is homed at node
``f mod NumNodes``; when declustered over DD nodes it is split into DD
partitions placed on the DD consecutive nodes starting at the home node
(wrapping around).  A per-file DD override supports placement ablations.

The placement also decides which nodes the machine serves as one
(:meth:`DataPlacement.node_groups`): nodes that hold the same files,
each of which lies on exactly those nodes, receive the same cohorts at
the same instants and so stay in lockstep.
"""

from __future__ import annotations

import functools
import typing

from repro.machine.config import MachineConfig

Nodes = typing.Tuple[int, ...]
#: per file: its nodes (as :meth:`DataPlacement.nodes_for`) and the node
#: groups a step on it submits to, each with its members in that order
CohortLayout = typing.List[typing.Tuple[Nodes, typing.Tuple[Nodes, ...]]]


class DataPlacement:
    """Maps files to the nodes holding their partitions."""

    def __init__(
        self,
        config: MachineConfig,
        dd_overrides: typing.Optional[typing.Mapping[int, int]] = None,
        striping: str = "consecutive",
    ) -> None:
        """``striping`` chooses partition spread: ``consecutive`` (the
        paper's rule) or ``strided`` (every ``num_nodes // dd``-th node,
        used by the placement ablation)."""
        if striping not in ("consecutive", "strided"):
            raise ValueError(f"unknown striping strategy {striping!r}")
        self.config = config
        self.striping = striping
        self._dd_overrides = dict(dd_overrides or {})
        for file_id, dd in self._dd_overrides.items():
            self._check_file(file_id)
            if not 1 <= dd <= config.num_nodes:
                raise ValueError(
                    f"override dd={dd} for file {file_id} out of range"
                )

    def _check_file(self, file_id: int) -> None:
        if not 0 <= file_id < self.config.num_files:
            raise ValueError(
                f"file {file_id} out of range [0, {self.config.num_files})"
            )

    def degree_of_declustering(self, file_id: int) -> int:
        """DD for this file (global default unless overridden)."""
        self._check_file(file_id)
        return self._dd_overrides.get(file_id, self.config.dd)

    def home_node(self, file_id: int) -> int:
        """The node that owns the file and coordinates its cohorts."""
        self._check_file(file_id)
        return file_id % self.config.num_nodes

    def nodes_for(self, file_id: int) -> typing.List[int]:
        """The nodes holding this file's partitions, home node first."""
        home = self.home_node(file_id)
        dd = self.degree_of_declustering(file_id)
        n = self.config.num_nodes
        if self.striping == "consecutive":
            return [(home + i) % n for i in range(dd)]
        stride = max(1, n // dd)
        return [(home + i * stride) % n for i in range(dd)]

    def partition_cost(self, file_id: int, step_cost: float) -> float:
        """Per-cohort I/O cost for a step of total cost ``step_cost``.

        The paper expresses pattern costs at DD = 1; at DD = k each of the
        k cohorts scans cost/k objects.
        """
        return step_cost / self.degree_of_declustering(file_id)

    def files_on_node(self, node_id: int) -> typing.List[int]:
        """All files with a partition on ``node_id``."""
        if not 0 <= node_id < self.config.num_nodes:
            raise ValueError(f"node {node_id} out of range")
        return [
            f
            for f in range(self.config.num_files)
            if node_id in self.nodes_for(f)
        ]

    def node_groups(self) -> typing.List[Nodes]:
        """The nodes served as one DPN: each group's members in node
        order, the groups ordered by their first member.

        Two or more nodes form a group when they hold the same files and
        each of those files lies on exactly them.  Every step on such a
        file then reaches all members at once with equal cohorts, so
        their service stays identical, and no step submits to a member
        between two others (docs/MODEL.md, "Node groups").  Every other
        node is a group of its own.
        """
        holders = [
            tuple(sorted(self.nodes_for(f)))
            for f in range(self.config.num_files)
        ]
        held: typing.List[typing.List[int]] = [
            [] for _ in range(self.config.num_nodes)
        ]
        for file_id, nodes in enumerate(holders):
            for node in nodes:
                held[node].append(file_id)
        groups: typing.List[Nodes] = []
        placed: typing.Set[int] = set()
        for node, files in enumerate(held):
            if node in placed:
                continue
            members = holders[files[0]] if files else (node,)
            if any(
                holders[f] != members for member in members
                for f in held[member]
            ):
                members = (node,)
            groups.append(members)
            placed.update(members)
        return groups

    @functools.cached_property
    def cohort_layout(self) -> CohortLayout:
        """Per file id: its nodes, and the node groups a step on it
        submits one cohort to, in submission order.

        A file lies either on exactly one group of :meth:`node_groups`
        or on single-node groups only, so the groups are the file's
        nodes taken whole or one at a time.
        """
        shared = {g for g in self.node_groups() if len(g) > 1}
        layout: CohortLayout = []
        for file_id in range(self.config.num_files):
            nodes = tuple(self.nodes_for(file_id))
            if tuple(sorted(nodes)) in shared:
                layout.append((nodes, (nodes,)))
            else:
                layout.append((nodes, tuple((node,) for node in nodes)))
        return layout
