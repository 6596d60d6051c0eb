"""Wiring of machine + workload + scheduler into one simulation run.

Implements the paper's execution model (Section 4.1, item 4) per
transaction:

1. arrival at the CN (Poisson);
2. scheduler admission (MPL gate + policy) and ``sot_time`` CPU startup;
3. per step: lock acquisition through the scheduler at the step that
   first needs the file, then the scan (CN message out, DD cohorts served
   round-robin on the DPNs, CN message in), one
   :class:`~repro.machine.machine.StepExecution` event;
4. ``cot_time`` CPU commitment, optimistic validation if the policy has
   one, lock release; failed validation aborts and restarts the
   transaction from scratch.

The paper's measurements run 2,000,000 clocks (= ms) with mpl = infinity;
``duration_ms`` and ``warmup_ms`` control the window here.
"""

from __future__ import annotations

import typing

from repro.core.base import Scheduler, TransactionAborted
from repro.core.registry import create as create_scheduler
from repro.des import Environment, RandomStreams
from repro.des.monitor import TimeWeighted
from repro.machine.config import MachineConfig
from repro.machine.machine import SharedNothingMachine, StepExecution
from repro.obs.recorder import NULL_RECORDER, TraceRecorder
from repro.sim.metrics import MetricsCollector, SimulationResult
from repro.txn.transaction import BatchTransaction
from repro.txn.workload import Workload

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.audit import SerializabilityAuditor
    from repro.obs.profile import PhaseProfiler
    from repro.obs.timeseries import TimeSeriesSampler

SchedulerFactory = typing.Callable[
    [Environment, MachineConfig, typing.Any], Scheduler
]


class Simulation:
    """One complete simulation run."""

    def __init__(
        self,
        config: MachineConfig,
        workload: Workload,
        scheduler: str = "C2PL",
        seed: int = 0,
        duration_ms: float = 2_000_000.0,
        warmup_ms: float = 0.0,
        auditor: typing.Optional[SerializabilityAuditor] = None,
        scheduler_factory: typing.Optional[SchedulerFactory] = None,
        max_arrivals: typing.Optional[int] = None,
        recorder: typing.Optional[TraceRecorder] = None,
        sampler: typing.Optional["TimeSeriesSampler"] = None,
        profiler: typing.Optional["PhaseProfiler"] = None,
    ) -> None:
        if duration_ms <= 0:
            raise ValueError(f"duration must be > 0, got {duration_ms}")
        if not 0 <= warmup_ms < duration_ms:
            raise ValueError(
                f"warmup {warmup_ms} must lie inside the run {duration_ms}"
            )
        self.config = config
        self.workload = workload
        self.scheduler_name = scheduler
        self.seed = seed
        self.duration_ms = duration_ms
        self.warmup_ms = warmup_ms
        self.auditor = auditor
        self.max_arrivals = max_arrivals

        self.env = Environment()
        #: trace sink; installed on the environment *before* the machine
        #: and scheduler are built so every component caches the real one
        self.trace = recorder if recorder is not None else NULL_RECORDER
        self.env.trace = self.trace
        self.sampler = sampler
        self.streams = RandomStreams(seed)
        self.machine = SharedNothingMachine(self.env, config)
        if scheduler_factory is not None:
            self.scheduler: Scheduler = scheduler_factory(
                self.env, config, self.machine.control_node
            )
        else:
            self.scheduler = create_scheduler(
                scheduler, self.env, config, self.machine.control_node
            )
        self.scheduler.bind_machine(self.machine)
        self.metrics = MetricsCollector()
        self.in_flight = TimeWeighted(self.env.now, 0.0, "in-flight")
        self._next_restart_id = 10_000_000  # ids for restarted attempts
        if sampler is not None:
            self._register_probes(sampler)
            self.env.sampler = sampler
        self._profiler = profiler
        if profiler is not None:
            profiler.attach(self)

    def _register_probes(self, sampler: "TimeSeriesSampler") -> None:
        """Wire the machine/scheduler/run-level series catalogue.

        Probes read state only: attaching a sampler never changes what a
        run computes (the determinism tests assert byte-identical
        results for every scheduler).
        """
        from repro.obs.timeseries import gauge, windowed_rate

        sampler.add_probes(self.machine.timeseries_probes())
        sampler.add_probes(self.scheduler.timeseries_probes())
        sampler.add_probes({
            "txn.in_flight": {
                "probe": gauge(lambda: self.in_flight.value),
                "unit": "txn",
            },
            "txn.commits.cum": {
                "probe": gauge(lambda: self.metrics.commits),
                "unit": "txn",
            },
            "txn.restarts.cum": {
                "probe": gauge(lambda: self.metrics.restarts),
                "unit": "txn",
            },
            "txn.commit_rate": {
                # commits per simulated second within each window
                "probe": windowed_rate(
                    lambda _t: float(self.metrics.commits), scale=1_000.0
                ),
                "unit": "tps",
            },
        })

    # -- public API --------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the run and return its steady-state metrics."""
        self.env.process(self._arrivals(), name="arrivals")
        if self.warmup_ms > 0:
            self.env.process(self._warmup_reset(), name="warmup")
        try:
            self.env.run(until=self.duration_ms)
            return self._result()
        finally:
            self.env.close()
            self.machine.close()
            if self._profiler is not None:
                self._profiler.detach(self)

    # -- processes ------------------------------------------------------------------

    def _arrivals(self) -> typing.Generator:
        count = 0
        while self.max_arrivals is None or count < self.max_arrivals:
            delay = self.workload.next_interarrival_ms(self.streams)
            yield self.env.timeout(delay)
            txn = self.workload.make_transaction(self.env.now, self.streams)
            self.in_flight.increment(self.env.now, +1)
            if self.trace.enabled:
                self.trace.emit(
                    self.env.now, "txn.arrive", txn=txn.txn_id, label=txn.label
                )
            self.env.process(self._execute(txn), name=f"txn-{txn.txn_id}")
            count += 1

    def _warmup_reset(self) -> typing.Generator:
        yield self.env.timeout(self.warmup_ms)
        self.metrics.reset(self.env.now)
        self.machine.reset_statistics()
        self.scheduler.stats.reset()
        self.in_flight.reset(self.env.now)

    def _execute(self, txn: BatchTransaction) -> typing.Generator:
        """Drive one transaction to commit, restarting on OPT aborts.

        The CN startup and commit slices and each step are single
        events, so an attempt without CC waits resumes once for each.
        Its generator is alive from arrival to commit, queued behind the
        MPL gate too, so it keeps few locals.
        """
        scheduler = self.scheduler
        cn = self.machine.control_node
        attempt = txn
        while True:
            attempt_started = self.env.now
            yield from scheduler.admit(attempt)
            piece = cn.request(self.config.sot_time_ms, "startup")
            if piece is not None:
                yield piece

            try:
                while not attempt.finished_all_steps:
                    step = attempt.current_step
                    if attempt.locks_at[attempt.current_step_index]:
                        yield from scheduler.acquire(attempt, step.file_id)
                    if self.auditor is not None:
                        self.auditor.record_access(
                            attempt.txn_id, step.file_id, step.mode, self.env.now
                        )
                    yield self._start_step(attempt)
                    if self.trace.enabled:
                        self.trace.emit(
                            self.env.now, "txn.step_end", txn=attempt.txn_id,
                            file=step.file_id, step=attempt.current_step_index,
                        )
                    attempt.advance()
            except TransactionAborted:
                # deadlock victim (plain 2PL): roll back and restart
                attempt = yield from self._restart(
                    attempt, attempt_started, "deadlock"
                )
                continue

            piece = cn.request(self.config.cot_time_ms, "commit")
            if piece is not None:
                yield piece
            if scheduler.validate_at_commit(attempt):
                yield from scheduler.commit(attempt)
                if self.auditor is not None:
                    self.auditor.record_commit(attempt.txn_id, self.env.now)
                if self.env.now >= self.warmup_ms:
                    self.metrics.record_commit(attempt.response_time(), attempt.label)
                self.in_flight.increment(self.env.now, -1)
                return
            attempt = yield from self._restart(
                attempt, attempt_started, "validation"
            )

    def _restart(
        self, attempt: BatchTransaction, attempt_started: float, reason: str
    ) -> typing.Generator:
        """Roll ``attempt`` back and return its restart copy; ``reason``
        is ``deadlock`` (a 2PL victim) or ``validation`` (OPT)."""
        yield from self.scheduler.abort(attempt)
        if self.auditor is not None:
            self.auditor.record_abort(attempt.txn_id)
        if self.env.now >= self.warmup_ms:
            self.metrics.record_restart(self.env.now - attempt_started)
        restarted = attempt.restart_copy(self._allocate_restart_id())
        if self.trace.enabled:
            self.trace.emit(
                self.env.now, "txn.restart", txn=attempt.txn_id,
                new_txn=restarted.txn_id, reason=reason,
            )
        return restarted

    def _start_step(self, txn: BatchTransaction) -> StepExecution:
        """Start the scan of ``txn``'s current step (Section 4.1): CN
        message out, DD cohorts on the DPNs, CN message in.  Returns the
        step, one event."""
        step = txn.current_step
        if self.trace.enabled:
            self.trace.emit(
                self.env.now, "txn.step_start", txn=txn.txn_id,
                file=step.file_id, step=txn.current_step_index,
                cost=step.cost,
            )
        execution = txn.current_execution = self.machine.begin_step(
            txn.txn_id, step.file_id, step.cost
        )
        return execution.start()

    def _allocate_restart_id(self) -> int:
        self._next_restart_id += 1
        return self._next_restart_id

    # -- results ----------------------------------------------------------------------

    def _result(self) -> SimulationResult:
        tally = self.metrics.response_times
        return SimulationResult(
            scheduler=self.scheduler.name,
            arrival_rate_tps=self.workload.arrival_rate_tps,
            duration_ms=self.duration_ms,
            warmup_ms=self.warmup_ms,
            completed=self.metrics.commits,
            mean_response_ms=tally.mean,
            p95_response_ms=tally.percentile(95),
            max_response_ms=tally.maximum if tally.count else float("nan"),
            throughput_tps=self.metrics.throughput_tps(self.env.now),
            cn_utilisation=self.machine.control_node.utilisation(),
            dpn_utilisation=self.machine.mean_dpn_utilisation(),
            restarts=self.metrics.restarts,
            restart_wasted_ms=self.metrics.restart_wasted_ms,
            admission_rejections=self.scheduler.stats.admission_rejections.total,
            blocks=self.scheduler.stats.blocks.total,
            delays=self.scheduler.stats.delays.total,
            in_flight_at_end=int(self.in_flight.value),
            seed=self.seed,
            p95_exact=tally.is_exact,
            label_metrics=self.metrics.label_summary(),
        )


def run_simulation(
    scheduler: str,
    workload: Workload,
    config: typing.Optional[MachineConfig] = None,
    seed: int = 0,
    duration_ms: float = 2_000_000.0,
    warmup_ms: float = 0.0,
    **kwargs: typing.Any,
) -> SimulationResult:
    """Convenience one-call run (see :class:`Simulation`)."""
    return Simulation(
        config or MachineConfig(),
        workload,
        scheduler=scheduler,
        seed=seed,
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        **kwargs,
    ).run()
