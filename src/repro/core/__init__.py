"""The paper's contribution: WTPG-based batch-transaction schedulers.

- :class:`WTPG` -- the Weighted Transaction-Precedence Graph (Section 3.1).
- :mod:`repro.core.chain` -- chain-form testing and the optimal
  serializable order for GOW.
- :class:`Scheduler` and the six policies: :class:`GOWScheduler`,
  :class:`LOWScheduler`, :class:`ASLScheduler`, :class:`C2PLScheduler`,
  :class:`OPTScheduler`, :class:`NODCScheduler`.
- :class:`LockTable` -- file-granule S/X locks.
- :class:`SerializabilityAuditor` -- history checking for tests.
- :func:`create` / :data:`PAPER_SCHEDULERS` -- the scheduler registry.
"""

from repro.core.asl import ASLScheduler
from repro.core.audit import SerializabilityAuditor
from repro.core.base import (
    Decision,
    Scheduler,
    SchedulerStats,
    TransactionAborted,
    WTPGSchedulerMixin,
)
from repro.core.c2pl import C2PLScheduler
from repro.core.gow import GOWScheduler
from repro.core.locks import LockError, LockTable
from repro.core.low import LOWScheduler
from repro.core.lowlb import LOWLBScheduler, ResourceAwareWTPG
from repro.core.nodc import NODCScheduler
from repro.core.opt import OPTScheduler
from repro.core.registry import PAPER_SCHEDULERS, available, create, register
from repro.core.twopl import TwoPLScheduler
from repro.core.wtpg import WTPG, ConflictEdge

# Imported last (it needs repro.core fully initialised): registers the
# modern scheduler families, so importing anything under repro.core --
# the registry included -- always sees the full roster.
import repro.schedulers.modern  # noqa: E402,F401

__all__ = [
    "ASLScheduler",
    "C2PLScheduler",
    "ConflictEdge",
    "Decision",
    "GOWScheduler",
    "LOWLBScheduler",
    "LOWScheduler",
    "LockError",
    "LockTable",
    "NODCScheduler",
    "OPTScheduler",
    "PAPER_SCHEDULERS",
    "Scheduler",
    "SchedulerStats",
    "TransactionAborted",
    "TwoPLScheduler",
    "WTPGSchedulerMixin",
    "ResourceAwareWTPG",
    "SerializabilityAuditor",
    "WTPG",
    "available",
    "create",
    "register",
]
