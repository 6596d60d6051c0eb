"""LOW-LB: resource-aware LOW (the paper's stated further work).

The conclusion of the paper suggests improving the WTPG schedulers "for
resource-level load-balancing on Shared-Nothing database machines".
This extension implements the most direct reading: the WTPG's T0-edge
weight -- a transaction's remaining *declared* I/O -- is inflated by the
scan backlog already queued on the data-processing nodes that will serve
the transaction's current step:

    w0'(Ti) = remaining_cost(Ti) + rho * mean_backlog(nodes of Ti's step)

E(q) then measures contention in *time-to-drain* rather than raw I/O
demand, so a contended lock preferentially goes to a transaction whose
work lands on idle nodes.  With ``rho = 0`` LOW-LB degenerates to LOW
exactly.

The scheduler needs sight of the machine's DPNs; the simulation binds it
after construction via :meth:`bind_machine`.
"""

from __future__ import annotations

import typing

from repro.core.low import LOWScheduler
from repro.core.wtpg import WTPG

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.machine import SharedNothingMachine


def _no_backlog(node_id: int) -> float:
    return 0.0


def _no_nodes(file_id: int) -> typing.List[int]:
    return []


class ResourceAwareWTPG(WTPG):
    """WTPG whose T0 weights include current DPN scan backlog.

    ``node_backlog`` and ``nodes_for_file`` read the machine; until they
    are set a step's nodes are unknown and the weights are LOW's.
    """

    def __init__(
        self,
        node_backlog: typing.Callable[[int], float] = _no_backlog,
        nodes_for_file: typing.Callable[[int], typing.List[int]] = _no_nodes,
        rho: float = 1.0,
    ) -> None:
        super().__init__()
        if rho < 0:
            raise ValueError(f"rho must be >= 0, got {rho}")
        self.node_backlog = node_backlog
        self.nodes_for_file = nodes_for_file
        self._rho = rho

    def t0_weight(self, txn_id: int) -> float:
        base = super().t0_weight(txn_id)
        if self._rho == 0.0:
            return base
        txn = self.transaction(txn_id)
        if txn.finished_all_steps:
            return base
        nodes = self.nodes_for_file(txn.current_step.file_id)
        if not nodes:
            return base
        backlog = sum(self.node_backlog(n) for n in nodes) / len(nodes)
        return base + self._rho * backlog


class LOWLBScheduler(LOWScheduler):
    """LOW with resource-level load balancing in its E() estimates."""

    name = "LOW-LB"

    def __init__(
        self, *args: typing.Any, rho: float = 1.0, **kwargs: typing.Any
    ) -> None:
        super().__init__(*args, **kwargs)
        self.rho = rho
        self.wtpg = ResourceAwareWTPG(rho=rho)

    def bind_machine(self, machine: "SharedNothingMachine") -> None:
        """Give the WTPG sight of the DPN queues (simulation calls this
        right after construction).  It gets the machine's own readers,
        not the scheduler's, so scheduler and WTPG form no cycle.  Both
        look the machine up on each call: a placement set after binding
        is the one they read."""
        self.wtpg.node_backlog = (
            lambda node_id: machine.data_nodes[node_id].backlog_objects
        )
        self.wtpg.nodes_for_file = (
            lambda file_id: machine.placement.nodes_for(file_id)
        )
