"""The event-sparse DPN against the per-quantum oracle.

``DataProcessingNode`` keeps one completion timer per node and books the
quanta before it on demand; ``reference_node.PerQuantumNode`` fires one
event per quantum.  Driven through identical scenarios, the two must
agree *exactly* (``==``, no tolerance) on every completion time, the
``busy`` integral, and every read a scheduler or the sampler makes:
``backlog_objects``, ``active_cohorts``, ``StepExecution.fraction_done``
and the fleet gauges.  A ``dd = NODES`` machine, which serves both nodes
as one group, is held to per-node oracles the same way.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment
from repro.machine import (
    DataPlacement,
    MachineConfig,
    SharedNothingMachine,
    StepExecution,
)
from repro.machine.data_node import Cohort
from repro.obs.timeseries import TimeSeriesSampler

from tests.machine.reference_node import PerQuantumNode

NODES = 2
#: every DD's quantum: 1, 1/2, 1/4 and 1/8 object
QUANTA = (1.0, 0.5, 0.25, 0.125)


class SingletonPlacement(DataPlacement):
    """Per-node service: every node a group of its own."""

    def node_groups(self):
        return [(node,) for node in range(self.config.num_nodes)]


def run_scenario(
    sparse, obj_time, submissions, reads, samples, whole_steps=False
):
    """Drive one machine through ``submissions`` and ``reads``.

    ``submissions`` holds ``(time, node, objects, quantum)`` cohorts, or
    with ``whole_steps`` ``(time, file, cost)`` steps on a ``dd =
    NODES`` machine (one node group when ``sparse``); ``reads`` holds
    ``(time, kind, index)``; the sampler's interval is ``samples`` ms,
    or the run's horizon split into ``samples`` when an int.  Returns
    completion times by submission, the reads in order, each node's busy
    integral and the sampled DPN series.
    """
    env = Environment()
    config = MachineConfig(
        num_nodes=NODES, obj_time_ms=obj_time,
        dd=NODES if whole_steps else 1,
    )
    machine = SharedNothingMachine(
        env, config, None if sparse else SingletonPlacement(config)
    )
    if not sparse:
        machine.data_nodes = [
            PerQuantumNode(env, node_id, obj_time) for node_id in range(NODES)
        ]
    nodes = machine.data_nodes
    work_ms = sum(submission[2] for submission in submissions) * obj_time
    horizon = max(time for time, *_ in submissions) + work_ms + 1.0
    interval = horizon / samples if isinstance(samples, int) else samples
    sampler = TimeSeriesSampler(interval_ms=interval)
    sampler.add_probes({
        name: spec for name, spec in machine.timeseries_probes().items()
        if name.startswith("dpn.")
    })
    env.sampler = sampler
    done_at = {}
    seen = []
    steps = []
    actions = sorted(
        [(time, 0, index) for index, (time, *_) in enumerate(submissions)]
        + [(time, 1, index) for index, (time, *_) in enumerate(reads)]
    )

    def actor():
        for time, is_read, index in actions:
            if time > env.now:
                yield env.timeout(time - env.now)
                # one more hop lets every event already due at this
                # instant fire first -- a quantum ending now included --
                # which is the order the booking rule stands for
                yield env.timeout(0)
            if not is_read:
                if whole_steps:
                    _, file_id, cost = submissions[index]
                    step = machine.begin_step(index, file_id, cost)
                    done = step.submit()
                else:
                    _, node_id, objects, quantum = submissions[index]
                    cohort = Cohort(env, index, 0, node_id, objects, quantum)
                    step = StepExecution(
                        0, objects, [cohort], cohort.done, nodes
                    )
                    done = nodes[node_id].submit(cohort)
                steps.append(step)
                done.callbacks.append(
                    lambda _event, index=index: done_at.setdefault(
                        index, env.now
                    )
                )
                continue
            _, kind, pick = reads[index]
            node = nodes[pick % NODES]
            if kind == "backlog":
                seen.append((env.now, kind, node.backlog_objects))
            elif kind == "active":
                seen.append((env.now, kind, node.active_cohorts))
            elif steps:
                step = steps[pick % len(steps)]
                seen.append((env.now, kind, step.fraction_done()))

    env.process(actor())
    env.run(until=horizon)
    busy = [node.busy.integral(horizon) for node in nodes]
    series = {
        name: list(series.points) for name, series in sampler.series.items()
    }
    return done_at, seen, busy, series


def assert_same(obj_time, submissions, reads, samples=40, whole_steps=False):
    sparse = run_scenario(
        True, obj_time, submissions, reads, samples, whole_steps
    )
    oracle = run_scenario(
        False, obj_time, submissions, reads, samples, whole_steps
    )
    for got, want in zip(sparse, oracle):
        assert got == want
    return sparse


objects = st.one_of(
    st.sampled_from([0.0, 0.3, 0.7, 1.0, 2.0, 0.125, 0.025, 0.625]),
    st.floats(min_value=0.0, max_value=4.0),
)
submission = st.tuples(
    st.floats(min_value=0.0, max_value=3_000.0),
    st.integers(min_value=0, max_value=NODES - 1),
    objects,
    st.sampled_from(QUANTA),
)
read = st.tuples(
    st.floats(min_value=0.0, max_value=6_000.0),
    st.sampled_from(["backlog", "active", "fraction"]),
    st.integers(min_value=0, max_value=1_000),
)


@settings(max_examples=200, deadline=None)
@given(
    obj_time=st.sampled_from([1000.0, 100.0, 8.0, 37.5]),
    submissions=st.lists(submission, min_size=1, max_size=14),
    reads=st.lists(read, max_size=30),
    samples=st.integers(min_value=5, max_value=120),
)
def test_event_sparse_service_replays_the_per_quantum_oracle(
    obj_time, submissions, reads, samples
):
    assert_same(obj_time, submissions, reads, samples)


step = st.tuples(
    st.floats(min_value=0.0, max_value=3_000.0),
    st.integers(min_value=0, max_value=15),
    objects,
)


@settings(max_examples=100, deadline=None)
@given(
    obj_time=st.sampled_from([1000.0, 100.0, 8.0, 37.5]),
    steps=st.lists(step, min_size=1, max_size=14),
    reads=st.lists(read, max_size=30),
    samples=st.integers(min_value=5, max_value=120),
)
def test_node_group_replays_per_node_oracles(obj_time, steps, reads, samples):
    """At dd = NODES one DPN serves both nodes; every step's completion,
    each node's busy integral and every read match two per-quantum
    nodes fed one cohort each."""
    assert_same(obj_time, steps, reads, samples, whole_steps=True)


@settings(max_examples=60, deadline=None)
@given(
    obj_time=st.sampled_from([1000.0, 8.0]),
    quantum=st.sampled_from(QUANTA),
    times=st.lists(
        st.floats(min_value=0.0, max_value=200.0), min_size=2, max_size=24
    ),
)
def test_crowded_ring_of_one_shape(obj_time, quantum, times):
    """Many same-shape cohorts on one node: long rings, many re-arms."""
    submissions = [(time, 0, 2.5 * quantum * 4, quantum) for time in times]
    reads = [(time + 1.0, "backlog", 0) for time in times]
    assert_same(obj_time, submissions, reads)


def test_submit_exactly_on_a_quantum_boundary():
    """A submission at the instant a quantum ends sees it booked.

    A (3 objects, quantum 1, 100 ms per object) runs quanta ending at
    100, 200 and 300.  B arrives at exactly 200, from a timer set at 150
    -- after the quantum ending at 200 began, so the oracle processes
    that quantum's end first.  A then keeps its place ahead of B.
    """

    def run(sparse):
        env = Environment()
        node = (
            SharedNothingMachine(env, MachineConfig(obj_time_ms=100.0))
            .data_nodes[0] if sparse else PerQuantumNode(env, 0, 100.0)
        )
        a = Cohort(env, 1, 0, 0, 3.0, 1.0)
        b = Cohort(env, 2, 0, 0, 1.0, 1.0)
        done_at = {}
        seen = []

        def actor():
            node.submit(a).callbacks.append(
                lambda _e: done_at.update(a=env.now)
            )
            yield env.timeout(150.0)
            yield env.timeout(50.0)
            assert env.now == 200.0
            seen.append((node.backlog_objects, node.active_cohorts, a.scanned))
            node.submit(b).callbacks.append(
                lambda _e: done_at.update(b=env.now)
            )
            seen.append((node.backlog_objects, node.active_cohorts))

        env.process(actor())
        env.run()
        return seen, done_at, node.busy.integral(env.now)

    assert run(True) == run(False) == (
        [(0.0, 0, 2.0), (1.0, 1)], {"a": 300.0, "b": 400.0}, 400.0
    )


def test_sampler_boundary_exactly_on_a_quantum_end():
    """Gauges at a boundary exclude quanta that end on it.

    A (3 objects) and B (2 objects), both at t = 0 with quantum 1 and
    100 ms per object, alternate quanta ending at 100, 200, ... 500.
    Boundaries every 100 ms fall on every quantum end; those events fire
    after the sample, so each sample sees the quantum still in service.
    """
    submissions = [(0.0, 0, 3.0, 1.0), (0.0, 0, 2.0, 1.0)]
    _, _, _, series = assert_same(100.0, submissions, [], samples=100.0)
    # waiting (not in service) just before each quantum end: B, A, B, A
    assert series["dpn.backlog.objects"] == [
        (100.0, 2.0), (200.0, 2.0), (300.0, 1.0), (400.0, 1.0), (500.0, 0.0),
    ]
    assert series["dpn.queue.total"] == [
        (100.0, 1.0), (200.0, 1.0), (300.0, 1.0), (400.0, 1.0), (500.0, 0.0),
    ]
