"""Scheduler framework: the lock-request lifecycle shared by all policies.

A scheduler exposes three process-generator entry points that the
transaction executor drives:

- ``admit(txn)``    -- returns when the transaction may start (MPL gate
  plus the policy's admission rule, e.g. GOW's chain-form test or LOW's
  K-conflict limit).
- ``acquire(txn, file_id)`` -- returns when the lock for the step is held.
- ``commit(txn)`` / ``abort(txn)`` -- release everything and wake waiters.

Policies implement ``_try_admit`` and ``_try_acquire``; the framework
handles waiting, re-evaluation on state changes, the lock table, and
statistics.  Every policy computation consumes control-node CPU per the
paper's Table 1 costs, so concurrency control itself loads the machine.

Re-submission of blocked/delayed requests is event-driven: a commit or
abort wakes every delayed request and the waiters of each released file.
A DELAY verdict of the paper's policies can also turn into a GRANT when
*another* request is granted (a GOW/LOW grant re-orients the WTPG), and
grants wake nobody, so those DELAYs also re-poll every ``retry_delay_ms``
-- the paper's "aborted or delayed lock-requests are submitted ... after
some delay".  Policies whose DELAY verdicts change only at points they
notify (the admission-order family in :mod:`repro.schedulers.modern`)
clear :attr:`Scheduler.delay_fallback` and never poll.
"""

from __future__ import annotations

import abc
import collections
import enum
import operator
import typing

from repro.des import Environment, Event, Timeout
from repro.des.events import trigger
from repro.des.monitor import Counter
from repro.core.locks import LockTable
from repro.machine.config import MachineConfig
from repro.machine.control_node import ControlNode
from repro.txn.step import AccessMode
from repro.txn.transaction import BatchTransaction, TransactionState


class TransactionAborted(Exception):
    """Raised out of ``acquire`` when deadlock resolution picked the
    calling transaction as a victim (plain 2PL only); the executor must
    abort and restart the transaction."""


class Decision(enum.Enum):
    """Outcome of one lock-request evaluation (Figs. 4 and 7)."""

    GRANT = "grant"
    BLOCK = "block"  # conflicts with a held lock
    DELAY = "delay"  # policy decision (order/priority/deadlock avoidance)


class _FirstOf(Event):
    """Fires one hop after the first of two events, as an ``AnyOf``
    over them would: a parked request's wake and its retry timer.

    It holds neither event (each holds it, in its callbacks), so one
    that never fires leaves no reference cycle behind.  Neither event
    may fail or have fired yet.
    """

    __slots__ = ()

    def __init__(self, env: Environment, first: Event, second: Event) -> None:
        super().__init__(env)
        fired = self._fired
        first.callbacks.append(fired)
        second.callbacks.append(fired)

    def _fired(self, _event: Event) -> None:
        if not self._triggered:
            self.succeed()


#: a waiter's priority, the sort key of a wake-up
_priority = operator.itemgetter(0)


class SchedulerStats:
    """Counters every scheduler maintains."""

    def __init__(self) -> None:
        self.admissions = Counter("admissions")
        self.admission_rejections = Counter("admission_rejections")
        self.grants = Counter("grants")
        self.blocks = Counter("blocks")
        self.delays = Counter("delays")
        self.commits = Counter("commits")
        self.aborts = Counter("aborts")  # OPT validation failures

    def reset(self) -> None:
        for counter in vars(self).values():
            counter.reset()


class Scheduler(abc.ABC):
    """Base class for all six schedulers."""

    #: short name used in result tables ("GOW", "LOW", ...)
    name: str = "base"
    #: whether DELAYed requests also re-poll every ``retry_delay_ms``
    #: (see the module docstring); a property of the grant rule, so it
    #: is fixed per policy class rather than configured
    delay_fallback: bool = True

    def __init__(
        self,
        env: Environment,
        config: MachineConfig,
        control_node: ControlNode,
    ) -> None:
        self.env = env
        self.config = config
        self.control_node = control_node
        self.lock_table = LockTable(config.num_files)
        self.stats = SchedulerStats()
        #: trace sink (cached: the disabled path must stay one attribute
        #: check per instrumented site)
        self._trace = env.trace
        #: waiters woken by any commit (delayed requests, admissions),
        #: as (priority, event) with priority = transaction arrival time
        self._commit_waiters: typing.List[typing.Tuple[float, Event]] = []
        #: waiters woken when a specific file's lock is released
        self._file_waiters: typing.Dict[
            int, typing.List[typing.Tuple[float, Event]]
        ] = {}
        self._active_count = 0
        self._mpl_queue: typing.Deque[Event] = collections.deque()

    # -- public lifecycle ------------------------------------------------------

    def admit(self, txn: BatchTransaction) -> typing.Generator:
        """Wait until the transaction may start (MPL + policy admission)."""
        yield from self._enter_mpl_gate()
        while True:
            admitted = yield from self._try_admit(txn)
            if admitted:
                self._active_count += 1
                txn.state = TransactionState.ACTIVE
                txn.start_time = self.env.now
                self.stats.admissions.increment()
                if self._trace.enabled:
                    self._trace.emit(self.env.now, "txn.admit", txn=txn.txn_id)
                return
            self.stats.admission_rejections.increment()
            if self._trace.enabled:
                self._trace.emit(
                    self.env.now, "txn.admit_reject", txn=txn.txn_id
                )
            # Admissibility (free locks, chain shape, conflict counts) can
            # only improve when a transaction leaves: wake on commit.
            yield from self._wait_on(
                Event(self.env), self._admission_waiters(), False,
                txn.arrival_time,
            )

    def acquire(self, txn: BatchTransaction, file_id: int) -> typing.Generator:
        """Wait until the lock needed for ``file_id`` is held.

        The mode is the strongest the transaction ever needs on the file;
        a file locked at an earlier step returns immediately.
        """
        if self._already_holds(txn, file_id):
            return
        mode = txn.mode_for(file_id)
        wait_started: typing.Optional[float] = None
        while True:
            if self._doomed_check(txn):
                raise TransactionAborted(txn.txn_id)
            decision = yield from self._try_acquire(txn, file_id, mode)
            if decision is Decision.GRANT:
                self.stats.grants.increment()
                if self._trace.enabled and wait_started is not None:
                    self._trace.emit(
                        self.env.now,
                        "txn.lock_acquired",
                        txn=txn.txn_id,
                        file=file_id,
                        wait_ms=self.env.now - wait_started,
                    )
                return
            if self._trace.enabled:
                if wait_started is None:
                    self._trace.emit(
                        self.env.now,
                        "txn.lock_wait",
                        txn=txn.txn_id,
                        file=file_id,
                        mode=mode.name,
                    )
                if decision is Decision.BLOCK:
                    self._trace.emit(
                        self.env.now,
                        "txn.block",
                        txn=txn.txn_id,
                        file=file_id,
                        holders=sorted(self.lock_table.holders(file_id)),
                    )
                else:
                    self._trace.emit(
                        self.env.now, "txn.delay", txn=txn.txn_id, file=file_id
                    )
            if wait_started is None:
                wait_started = self.env.now
            if decision is Decision.BLOCK:
                self.stats.blocks.increment()
                yield from self._wait_for_file(
                    file_id, priority=txn.arrival_time
                )
            else:
                self.stats.delays.increment()
                yield from self._wait_for_commit(priority=txn.arrival_time)

    def commit(self, txn: BatchTransaction) -> typing.Generator:
        """Release locks, drop scheduler state, wake waiters."""
        yield from self._on_commit(txn)
        released = self.lock_table.release_all(txn.txn_id)
        txn.state = TransactionState.COMMITTED
        txn.commit_time = self.env.now
        self.stats.commits.increment()
        if self._trace.enabled:
            for file_id in released:
                self._trace.emit(
                    self.env.now, "lock.release", txn=txn.txn_id, file=file_id
                )
            self._trace.emit(
                self.env.now,
                "txn.commit",
                txn=txn.txn_id,
                response_ms=txn.commit_time - txn.arrival_time,
            )
        self._leave(released)

    def abort(self, txn: BatchTransaction) -> typing.Generator:
        """Abandon an active transaction (OPT validation failure)."""
        yield from self._on_abort(txn)
        released = self.lock_table.release_all(txn.txn_id)
        txn.state = TransactionState.ABORTED
        self.stats.aborts.increment()
        if self._trace.enabled:
            for file_id in released:
                self._trace.emit(
                    self.env.now, "lock.release", txn=txn.txn_id, file=file_id
                )
            self._trace.emit(
                self.env.now,
                "txn.abort",
                txn=txn.txn_id,
                reason="validation" if self.name == "OPT" else "deadlock",
            )
        self._leave(released)

    def validate_at_commit(self, txn: BatchTransaction) -> bool:
        """Certification hook; only OPT ever fails it."""
        return True

    def bind_machine(self, machine: typing.Any) -> None:
        """Give the scheduler sight of the machine (no-op by default;
        the resource-aware extension overrides it)."""

    def timeseries_probes(
        self,
    ) -> typing.Dict[str, typing.Dict[str, typing.Any]]:
        """Signals a :class:`TimeSeriesSampler` should watch on this
        scheduler.  Policies extend the base catalogue with their own
        structures (e.g. WTPG size, waits-for edges)."""
        from repro.obs.timeseries import gauge, size_hist

        return {
            "sched.active_mpl": {
                "probe": gauge(lambda: self._active_count),
                "unit": "txn",
                "hist": size_hist(),
            },
            "sched.blocked": {
                "probe": gauge(
                    lambda: sum(
                        len(pool) for pool in self._file_waiters.values()
                    )
                ),
                "unit": "txn",
                "hist": size_hist(),
            },
            "sched.delayed": {
                "probe": gauge(lambda: len(self._commit_waiters)),
                "unit": "txn",
                "hist": size_hist(),
            },
            "sched.mpl_queue": {
                "probe": gauge(lambda: len(self._mpl_queue)),
                "unit": "txn",
                "hist": size_hist(),
            },
            "lock.files_held": {
                "probe": gauge(self.lock_table.held_count),
                "unit": "files",
                "hist": size_hist(),
            },
            "sched.aborts.cum": {
                "probe": gauge(lambda: self.stats.aborts.total),
                "unit": "txn",
            },
        }

    # -- policy hooks ------------------------------------------------------------

    @abc.abstractmethod
    def _try_admit(self, txn: BatchTransaction) -> typing.Generator:
        """One admission attempt; generator returning bool."""

    @abc.abstractmethod
    def _try_acquire(
        self, txn: BatchTransaction, file_id: int, mode: AccessMode
    ) -> typing.Generator:
        """One lock-request evaluation; generator returning a Decision."""

    def _on_commit(self, txn: BatchTransaction) -> typing.Generator:
        """Scheduler-specific commit cleanup (default: none)."""
        return
        yield  # pragma: no cover - makes this a generator

    def _on_abort(self, txn: BatchTransaction) -> typing.Generator:
        """Scheduler-specific abort cleanup (default: same as commit)."""
        yield from self._on_commit(txn)

    def _already_holds(self, txn: BatchTransaction, file_id: int) -> bool:
        return self.lock_table.holds(txn.txn_id, file_id)

    def _doomed_check(self, txn: BatchTransaction) -> bool:
        """Deadlock-victim hook; only plain 2PL ever dooms anyone."""
        return False

    # -- waiting / waking -----------------------------------------------------------

    def _wait_on(
        self,
        wake: Event,
        pool: typing.List[typing.Tuple[float, Event]],
        fallback: bool,
        priority: float,
    ) -> typing.Generator:
        """Park on ``wake``, optionally with the retry-delay fallback.

        ``priority`` (lower wakes first; we pass the transaction's
        arrival time) keeps contested wake-ups FCFS: a waiter that
        re-parks after a failed retry keeps its age instead of moving to
        the back, so old transactions win contested admissions/locks and
        measured response times reflect real queueing delay.

        A pool is taken out of service before its waiters are woken, so
        only a request that the retry timer woke is still in it.
        """
        entry = (priority, wake)
        pool.append(entry)
        delay = self.config.retry_delay_ms
        if fallback and delay > 0:
            env = self.env
            yield _FirstOf(env, wake, Timeout(env, delay))
            if not wake._triggered:
                pool.remove(entry)
        else:
            yield wake

    def _admission_waiters(self) -> typing.List[typing.Tuple[float, Event]]:
        """The pool a rejected admission parks on (default: the
        every-commit pool).  Admission waits never poll: admissibility
        only improves when a transaction leaves, which always notifies."""
        return self._commit_waiters

    def _wait_for_commit(self, priority: float = 0.0) -> typing.Generator:
        """Sleep until some transaction commits/aborts (DELAYed requests).

        With :attr:`delay_fallback` set the request also re-polls every
        ``retry_delay_ms``: a paper policy's DELAY can turn into a GRANT
        on another transaction's grant, which wakes nobody.
        """
        yield from self._wait_on(
            Event(self.env), self._commit_waiters, self.delay_fallback,
            priority,
        )

    def _wait_for_file(
        self, file_id: int, priority: float = 0.0
    ) -> typing.Generator:
        """Sleep until the file's lock is released (blocked requests).

        Strict locking releases only at commit/abort, both of which
        notify, so no fallback is needed.
        """
        pool = self._file_waiters.setdefault(file_id, [])
        yield from self._wait_on(Event(self.env), pool, False, priority)

    def _notify_commit(self, released_files: typing.Iterable[int]) -> None:
        """Wake commit waiters and the waiters of each released file,
        oldest transaction first (FCFS among the eligible)."""
        waiters, self._commit_waiters = self._commit_waiters, []
        for file_id in released_files:
            waiters.extend(self._file_waiters.pop(file_id, ()))
        self._wake(waiters)

    @staticmethod
    def _wake(waiters: typing.List[typing.Tuple[float, Event]]) -> None:
        """Fire each parked event, oldest transaction first: each
        trigger is one call in the instant's batch."""
        waiters.sort(key=_priority)
        for _, event in waiters:
            if not event._triggered:
                trigger(event)

    def _notify_all(self) -> None:
        """Wake every waiter, wherever parked (deadlock-victim delivery)."""
        self._notify_commit(list(self._file_waiters))

    # -- MPL gate --------------------------------------------------------------------

    @property
    def active_count(self) -> int:
        """Transactions admitted and not yet committed/aborted."""
        return self._active_count

    def _enter_mpl_gate(self) -> typing.Generator:
        mpl = self.config.mpl
        if mpl is None:
            return
        while self._active_count + self._pending_mpl_grants() >= mpl:
            slot = self.env.event()
            self._mpl_queue.append(slot)
            yield slot
        return

    def _pending_mpl_grants(self) -> int:
        return 0  # slots are granted one-for-one on _leave()

    def _leave(self, released_files: typing.Iterable[int] = ()) -> None:
        self._active_count -= 1
        if self._mpl_queue:
            slot = self._mpl_queue.popleft()
            if not slot.triggered:
                slot.succeed()
        self._notify_commit(released_files)

    # -- helpers for subclasses ---------------------------------------------------------

    def _grant_lock(
        self, txn: BatchTransaction, file_id: int, mode: AccessMode
    ) -> None:
        self.lock_table.grant(txn.txn_id, file_id, mode)
        if self._trace.enabled:
            self._trace.emit(
                self.env.now,
                "lock.grant",
                txn=txn.txn_id,
                file=file_id,
                mode=mode.name,
            )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} active={self._active_count}>"


class WTPGSchedulerMixin:
    """Shared WTPG bookkeeping for GOW, LOW and C2PL.

    Besides adding the newcomer's conflict edges, declaration must
    resolve the edges whose order is *already* determined: any active
    transaction currently holding a conflicting lock on one of the
    newcomer's files accessed that file first, so holder -> newcomer is a
    precedence edge from the start.  Without this, two transactions that
    each grabbed one file before the other declared could pass every
    cycle test and deadlock as blocked waiters.
    """

    wtpg: typing.Any  # set by the concrete scheduler
    lock_table: LockTable
    env: typing.Any
    _trace: typing.Any
    #: C2PL sets this False: it never reads weights, so forced conflict
    #: edges can resolve lazily through the cycle test.
    wtpg_propagate = True

    def _emit_wtpg_fixes(
        self, fixes: typing.Iterable[typing.Tuple[int, int]]
    ) -> None:
        """Trace each precedence-edge insertion (chain orientation)."""
        for src, dst in fixes:
            self._trace.emit(self.env.now, "sched.wtpg_fix", src=src, dst=dst)

    def timeseries_probes(
        self,
    ) -> typing.Dict[str, typing.Dict[str, typing.Any]]:
        """Base catalogue plus the live WTPG node count."""
        from repro.obs.timeseries import gauge, size_hist

        probes = super().timeseries_probes()  # type: ignore[misc]
        probes["sched.wtpg_size"] = {
            "probe": gauge(lambda: len(self.wtpg)),
            "unit": "txn",
            "hist": size_hist(),
        }
        return probes

    def _register_in_wtpg(self, txn: BatchTransaction) -> None:
        self.wtpg.add_transaction(txn)
        direct: typing.List[typing.Tuple[int, int]] = []
        for file_id in txn.files:
            mode = txn.mode_for(file_id)
            held_mode = self.lock_table.mode_of(file_id)
            if held_mode is None or not held_mode.conflicts_with(mode):
                continue
            for holder in self.lock_table.holders(file_id):
                if holder != txn.txn_id and holder in self.wtpg:
                    self.wtpg.apply_fix(holder, txn.txn_id)
                    direct.append((holder, txn.txn_id))
                    if self._trace.enabled:
                        self._emit_wtpg_fixes([(holder, txn.txn_id)])
        if self.wtpg_propagate:
            # only paths through the just-fixed holder -> newcomer edges
            # are new, so the sweep restricts to them; with no direct
            # fixes a propagated graph has nothing new to force
            applied = self.wtpg.propagate_transitive_fixes(touched=direct)
            if self._trace.enabled:
                self._emit_wtpg_fixes(applied)

    def _deregister_from_wtpg(self, txn: BatchTransaction) -> None:
        if txn.txn_id in self.wtpg:
            self.wtpg.remove_transaction(txn.txn_id)
