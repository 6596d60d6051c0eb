"""Outside-in layer spans for the traced benchmark run.

The traced run wraps the public entry points of each simulator layer
from here, without editing the package: :func:`install` replaces the
attributes on their classes (or the module globals their callers look
up) with timing wrappers, and :func:`uninstall` puts the originals back.

A span stack gives every layer its *self* time: a span's duration minus
the time covered by the spans opened inside it.  A generator entry point
(a scheduler's ``acquire``, ``ControlNode.consume``) is timed over each
of its resumes, never over the simulated time it spends suspended.
Wrappers only observe: the wrapped call gets the same arguments and
returns, raises or yields exactly what it would have, so a traced run
computes byte-identical results.
"""

from __future__ import annotations

import functools
import inspect
import time
import typing

_clock = time.perf_counter

#: layer names, in reporting order (the package's module names)
LAYERS = (
    "des", "machine", "sched", "locks", "wtpg", "chain", "txn", "sim",
    "runner", "bisect",
)

#: scheduler entry points the transaction executor drives
SCHEDULER_ENTRY_POINTS = (
    "admit", "acquire", "commit", "abort", "validate_at_commit",
)


class SpanTracer:
    """Self time per layer; call count and inclusive time per entry point."""

    def __init__(self) -> None:
        self.self_s: typing.Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.calls: typing.Dict[str, int] = {}
        self.inclusive_s: typing.Dict[str, float] = {}
        #: counters read from the model after each simulation
        self.model: typing.Dict[str, float] = {}
        #: one ``[seconds covered by child spans]`` cell per open span
        self._stack: typing.List[typing.List[float]] = []

    def covered_s(self) -> float:
        """Wall time inside some span (the self times tile it)."""
        return sum(self.self_s.values())

    def count(self, key: str, amount: float = 1) -> None:
        self.model[key] = self.model.get(key, 0) + amount

    def calls_of(self, prefix: str) -> int:
        return sum(n for key, n in self.calls.items() if key.startswith(prefix))

    def _close(
        self, layer: str, key: str, start: float, frame: typing.List[float]
    ) -> None:
        elapsed = _clock() - start
        stack = self._stack
        stack.pop()
        self.self_s[layer] += elapsed - frame[0]
        if stack:
            stack[-1][0] += elapsed
        self.inclusive_s[key] = self.inclusive_s.get(key, 0.0) + elapsed

    def wrap(self, layer: str, key: str, fn: typing.Callable) -> typing.Callable:
        """``fn`` as one span per call, or per resume for a generator.

        ``calls`` counts invocations either way, not resumes.
        """
        stack = self._stack
        close = self._close
        calls = self.calls
        calls.setdefault(key, 0)

        if not inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def call(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
                calls[key] += 1
                frame = [0.0]
                stack.append(frame)
                start = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(layer, key, start, frame)

            return call

        def drive(gen: typing.Generator) -> typing.Generator:
            send_value: typing.Any = None
            thrown: typing.Optional[BaseException] = None
            while True:
                frame = [0.0]
                stack.append(frame)
                start = _clock()
                try:
                    if thrown is not None:
                        exc, thrown = thrown, None
                        item = gen.throw(exc)
                    else:
                        item = gen.send(send_value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    close(layer, key, start, frame)
                try:
                    send_value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # relayed into the generator
                    thrown = exc

        @functools.wraps(fn)
        def resume(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
            calls[key] += 1
            return drive(fn(*args, **kwargs))

        return resume


#: (owner, attribute, original value) per replaced attribute
Undo = typing.List[typing.Tuple[typing.Any, str, typing.Any]]


def _subclasses(cls: type) -> typing.List[type]:
    found: typing.List[type] = []
    pending = [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def _public_functions(cls: type) -> typing.List[str]:
    return sorted(
        name for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    )


def install(tracer: SpanTracer) -> Undo:
    """Wrap every layer's entry points; returns what :func:`uninstall` needs.

    Every replacement is computed from the unpatched attributes first,
    so a subclass never wraps its parent's wrapper.
    """
    import repro.core.gow as gow
    import repro.experiments.exp1 as exp1
    import repro.runner.runner as runner_module
    import repro.schedulers.modern  # noqa: F401  (registers CAR/PRED/DGCC)
    import repro.sim.experiment as experiment
    from repro.core.base import Scheduler
    from repro.core.locks import LockTable
    from repro.core.wtpg import WTPG
    from repro.des.engine import Environment
    from repro.machine.control_node import ControlNode
    from repro.machine.data_node import DataProcessingNode
    from repro.machine.machine import SharedNothingMachine
    from repro.runner.cache import ResultCache
    from repro.runner.runner import ParallelRunner
    from repro.runner.spec import RunSpec
    from repro.sim.metrics import MetricsCollector
    from repro.sim.simulation import Simulation
    from repro.txn.workload import Workload

    plan: typing.List[typing.Tuple[typing.Any, str, typing.Any]] = []

    def method(layer: str, cls: type, name: str, key: str = "") -> None:
        key = key or f"{layer}.{cls.__name__}.{name}"
        plan.append((cls, name, tracer.wrap(layer, key, getattr(cls, name))))

    def module_global(layer: str, module: typing.Any, name: str) -> None:
        key = f"{layer}.{name}"
        plan.append(
            (module, name, tracer.wrap(layer, key, getattr(module, name)))
        )

    # des: the event loop; its self time is the step loop, event
    # dispatch and every process body without an entry point of its
    # own (the per-transaction glue in Simulation, the DPN service loop)
    method("des", Environment, "run")
    method("machine", ControlNode, "consume")
    method("machine", DataProcessingNode, "submit")
    method("machine", SharedNothingMachine, "begin_step")
    for cls in _subclasses(Scheduler):
        for name in SCHEDULER_ENTRY_POINTS:
            method("sched", cls, name, key=f"sched.{name}")
    for name in _public_functions(LockTable):
        method("locks", LockTable, name)
    for name in _public_functions(WTPG):
        method("wtpg", WTPG, name)
    module_global("chain", gow, "compute_optimal_order")
    module_global("chain", gow, "keeps_chain_form_incremental")
    for cls in [Workload] + _subclasses(Workload):
        for name in ("make_transaction", "next_interarrival_ms"):
            if name in vars(cls):
                method("txn", cls, name, key=f"txn.{name}")
    method("sim", Simulation, "__init__")
    plan.append((Simulation, "run", _harvesting_run(tracer, Simulation.run)))
    method("sim", MetricsCollector, "record_commit")
    method("sim", MetricsCollector, "record_restart")
    method("runner", ParallelRunner, "run_batch")
    method("runner", RunSpec, "cache_key")
    method("runner", ResultCache, "get")
    method("runner", ResultCache, "put")
    module_global("runner", runner_module, "execute_spec")
    module_global("bisect", exp1, "find_throughput_batch")
    plan.append(
        (experiment, "run_specs",
         _counting_run_specs(tracer, experiment.run_specs))
    )

    undo: Undo = []
    for owner, name, replacement in plan:
        undo.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, replacement)
    return undo


_MISSING = object()


def uninstall(undo: Undo) -> None:
    """Put back every attribute :func:`install` replaced."""
    for owner, name, original in reversed(undo):
        if original is _MISSING:
            delattr(owner, name)
        else:
            setattr(owner, name, original)
    undo.clear()


def _counting_run_specs(
    tracer: SpanTracer, run_specs: typing.Callable
) -> typing.Callable:
    """The bisection's probe batches, counted by spec."""
    timed = tracer.wrap("bisect", "bisect.run_specs", run_specs)

    @functools.wraps(run_specs)
    def wrapper(specs: typing.Any, *args: typing.Any,
                **kwargs: typing.Any) -> typing.Any:
        tracer.count("probes", len(specs))
        return timed(specs, *args, **kwargs)

    return wrapper


def _harvesting_run(tracer: SpanTracer, run: typing.Callable) -> typing.Callable:
    """``Simulation.run`` as a sim span that then reads the model's counters.

    The counters are read after the span closes, from state every
    simulation keeps anyway.  Scheduler and control-node counters cover
    the measured window (they reset at warm-up, like ``completed``);
    ``events`` covers the whole run, the same span ``wall_s`` times.
    """
    timed = tracer.wrap("sim", "sim.Simulation.run", run)

    @functools.wraps(run)
    def wrapper(self: typing.Any) -> typing.Any:
        result = timed(self)
        stats = self.scheduler.stats
        categories = self.machine.control_node.cpu_ms_by_category
        count = tracer.count
        count("simulations")
        count("events", self.env.events_processed)
        count("commits", result.completed)
        count("restarts", result.restarts)
        count("grants", stats.grants.total)
        count("blocks", stats.blocks.total)
        count("delays", stats.delays.total)
        count("cn_util", result.cn_utilisation)
        count("cn_ms", sum(categories.values()))
        count("cn_cc_ms", sum(
            ms for name, ms in categories.items() if name.startswith("cc-")
        ))
        return result

    return wrapper
