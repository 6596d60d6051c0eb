"""Batch transactions: a declared sequence of file-scanning steps.

On startup a batch declares its full step sequence and each step's I/O
demand (Section 3.1).  Schedulers work exclusively from these
*declarations*; Experiment 3 perturbs them with a Gaussian error while the
actual execution uses the exact costs.
"""

from __future__ import annotations

import enum
import typing

from repro.txn.step import AccessMode, Step

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.machine.machine import StepExecution


_EXCLUSIVE = AccessMode.EXCLUSIVE
_new = object.__new__


class TransactionState(enum.Enum):
    """Lifecycle of a batch transaction."""

    PENDING = "pending"  # arrived, not yet admitted by the scheduler
    ACTIVE = "active"  # admitted; executing / waiting for locks
    COMMITTED = "committed"
    ABORTED = "aborted"  # OPT validation failure or GOW start rejection


class BatchTransaction:
    """One batch transaction instance.

    ``steps`` carry the exact I/O costs; ``declared_costs`` (same length)
    are what the transaction announced at startup and are all the
    schedulers may look at.  ``arrival_time`` is the *first* arrival --
    restarted transactions keep it so response time spans all attempts.
    """

    def __init__(
        self,
        txn_id: int,
        steps: typing.Sequence[Step],
        arrival_time: float,
        declared_costs: typing.Optional[typing.Sequence[float]] = None,
        attempt: int = 1,
        label: str = "txn",
    ) -> None:
        if not steps:
            raise ValueError("a transaction needs at least one step")
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        self.txn_id = txn_id
        self.steps = steps = list(steps)
        self.arrival_time = arrival_time
        self.attempt = attempt
        #: free-form workload class tag (drives per-class metrics)
        self.label = label
        if declared_costs is None:
            declared_costs = [step.cost for step in steps]
        declared = [float(c) for c in declared_costs]
        if len(declared) != len(steps):
            raise ValueError(
                f"{len(declared)} declared costs for {len(steps)} steps"
            )
        self.declared_costs = declared
        self._begin()

        # The declared shape never changes after construction, so the
        # views schedulers hammer per decision are built here in one
        # pass.  Lock plan: strongest mode ever needed per file, the
        # files in the order of the step that first touches each (the
        # paper: "X-locks are requested at the first two steps" of
        # Pattern 1), and whether each step is the one that locks its
        # file; the access sets; and the suffix sums of the
        # declared costs (each with the left-to-right association of a
        # fresh ``sum`` over the slice).
        mode_by_file: typing.Dict[int, AccessMode] = {}
        first_need: typing.Dict[int, int] = {}
        written = []
        locks_at: typing.List[bool] = []
        for index, step in enumerate(steps):
            file_id = step.file_id
            mode = step.mode
            first = file_id not in first_need
            locks_at.append(first)
            if first:
                first_need[file_id] = index
                mode_by_file[file_id] = mode
            elif mode is _EXCLUSIVE:
                mode_by_file[file_id] = mode
            if mode is _EXCLUSIVE:
                written.append(file_id)
            if declared[index] < 0:
                raise ValueError("declared costs must be >= 0")
        self._mode_by_file = mode_by_file
        self._first_need = first_need
        #: per step: is it the first to need its file (so its lock is
        #: acquired there)?  Shared with restarts; callers must not mutate
        self.locks_at: typing.List[bool] = locks_at
        self._files: typing.List[int] = list(first_need)
        self._read_set: typing.FrozenSet[int] = frozenset(first_need)
        self._write_set: typing.FrozenSet[int] = frozenset(written)
        self._cost_from_step: typing.List[float] = [
            sum(declared[i:]) for i in range(len(declared) + 1)
        ]

    def _begin(self) -> None:
        """Set the state of an attempt that has not started."""
        self.state = TransactionState.PENDING
        #: index of the step being (or about to be) executed
        self.current_step_index = 0
        #: live scan progress of the current step, set by the executor
        self.current_execution: typing.Optional["StepExecution"] = None
        self.start_time: typing.Optional[float] = None
        self.commit_time: typing.Optional[float] = None

    # -- static shape -------------------------------------------------------

    @property
    def files(self) -> typing.List[int]:
        """Distinct files touched, in first-need order.

        The returned list is a shared cache; callers must not mutate it.
        """
        return self._files

    def mode_for(self, file_id: int) -> AccessMode:
        """Strongest access mode the transaction ever needs on the file."""
        return self._mode_by_file[file_id]

    def writes(self, file_id: int) -> bool:
        """True when the transaction ever writes ``file_id``."""
        mode = self._mode_by_file.get(file_id)
        return mode is not None and mode.is_write

    @property
    def read_set(self) -> typing.FrozenSet[int]:
        """Files accessed in any mode (OPT validation reads everything it scans)."""
        return self._read_set

    @property
    def write_set(self) -> typing.FrozenSet[int]:
        """Files the transaction writes."""
        return self._write_set

    def conflicts_with(self, other: "BatchTransaction") -> bool:
        """Declared-access conflict: a shared file one of the two writes."""
        shared = self.read_set & other.read_set
        return any(self.writes(f) or other.writes(f) for f in shared)

    def conflict_files(self, other: "BatchTransaction") -> typing.List[int]:
        """Files on which the two transactions' declarations conflict."""
        shared = self.read_set & other.read_set
        return sorted(
            f for f in shared if self.writes(f) or other.writes(f)
        )

    # -- declared-cost arithmetic (drives WTPG weights) -----------------------

    @property
    def total_declared_cost(self) -> float:
        return self._cost_from_step[0]

    def declared_cost_from_step(self, index: int) -> float:
        """Declared I/O from step ``index`` (inclusive) to commitment."""
        if not 0 <= index <= len(self.steps):
            raise IndexError(f"step index {index} out of range")
        return self._cost_from_step[index]

    def blocked_step_against(self, other: "BatchTransaction") -> int:
        """Index of this transaction's first step conflicting with ``other``.

        This is the step at which *this* transaction would block were the
        other one holding its locks (defines the WTPG weight
        ``w(other -> self)``).
        """
        conflicted = set(self.conflict_files(other))
        if not conflicted:
            raise ValueError(
                f"T{self.txn_id} and T{other.txn_id} do not conflict"
            )
        return min(self._first_need[f] for f in conflicted)

    def remaining_declared_cost(self) -> float:
        """Declared I/O still to run, scaling the current step by progress.

        This is the weight of the WTPG edge ``T0 -> self`` -- the only
        weight the paper adjusts as the schedule proceeds.
        """
        if self.state is TransactionState.COMMITTED:
            return 0.0
        index = self.current_step_index
        if index >= len(self.steps):
            return 0.0
        # hot path (T0 weight of every WTPG node per critical-path
        # evaluation): index the precomputed suffix sums directly --
        # ``index + 1`` is in range because ``index < len(steps)``
        remaining = self._cost_from_step[index + 1]
        current_declared = self.declared_costs[index]
        execution = self.current_execution
        if execution is not None:
            remaining += current_declared * (1.0 - execution.fraction_done())
        else:
            remaining += current_declared
        return remaining

    # -- lifecycle -------------------------------------------------------------

    @property
    def current_step(self) -> Step:
        """The step at ``current_step_index``."""
        return self.steps[self.current_step_index]

    @property
    def is_last_step(self) -> bool:
        return self.current_step_index == len(self.steps) - 1

    @property
    def finished_all_steps(self) -> bool:
        return self.current_step_index >= len(self.steps)

    def advance(self) -> None:
        """Move to the next step (the executor calls this when one ends)."""
        if self.finished_all_steps:
            raise RuntimeError(f"T{self.txn_id} has no more steps")
        self.current_step_index += 1
        self.current_execution = None

    def restart_copy(self, new_txn_id: int) -> "BatchTransaction":
        """A fresh attempt of this transaction (for OPT restarts).

        Same steps and declarations, same original arrival time, attempt
        counter bumped.  The declared shape is shared with this attempt:
        nothing changes it after construction.
        """
        copy = _new(BatchTransaction)
        copy.txn_id = new_txn_id
        copy.steps = self.steps
        copy.arrival_time = self.arrival_time
        copy.attempt = self.attempt + 1
        copy.label = self.label
        copy.declared_costs = self.declared_costs
        copy._begin()
        copy._mode_by_file = self._mode_by_file
        copy._first_need = self._first_need
        copy.locks_at = self.locks_at
        copy._files = self._files
        copy._read_set = self._read_set
        copy._write_set = self._write_set
        copy._cost_from_step = self._cost_from_step
        return copy

    def response_time(self) -> float:
        """Arrival-to-commit latency; requires a committed transaction."""
        if self.commit_time is None:
            raise RuntimeError(f"T{self.txn_id} has not committed")
        return self.commit_time - self.arrival_time

    def __repr__(self) -> str:
        rendered = " -> ".join(str(s) for s in self.steps)
        return (
            f"<T{self.txn_id} attempt={self.attempt} "
            f"{self.state.value} [{rendered}]>"
        )
