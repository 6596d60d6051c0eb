"""The batched kernel fires everything in the heap-only kernel's order.

``repro.des`` runs every zero-delay trigger (``succeed()``/``fail()`` at
now, a process's start and its relay) and every ``call_at`` call as a
call in its instant's shared batch; ``tests/des/reference_engine.py``
gives each its own heap entry.  Random programs mixing timeouts,
triggers now and at a later instant, ``call_at``, ``schedule_at``,
``any_of``/``all_of`` and process waits at deliberately colliding
instants must log the same ``(now, label)`` sequence under both, with a
``run(until=...)`` stop part-way.
"""

from hypothesis import given, settings, strategies as st

import repro.des as batched_kernel
from tests.des import reference_engine

EVENTS = 4
SCRIPTS = 5

#: few distinct delays, so most instants hold several triggers
delays = st.sampled_from([0.0, 0.0, 0.5, 1.0])
pool_event = st.integers(0, EVENTS - 1)
script_index = st.integers(0, SCRIPTS - 1)
some_events = st.lists(pool_event, min_size=1, max_size=3)

ops = st.one_of(
    st.tuples(st.just("timeout"), delays),
    st.tuples(st.just("succeed"), pool_event),
    st.tuples(st.just("fail"), pool_event),
    st.tuples(st.just("succeed_at"), pool_event, delays),
    st.tuples(st.just("call_at"), delays),
    st.tuples(st.just("call_trigger"), delays, pool_event),
    st.tuples(st.just("schedule_at"), delays),
    st.tuples(st.just("wait"), pool_event),
    st.tuples(st.just("any_of"), some_events),
    st.tuples(st.just("all_of"), some_events),
    st.tuples(st.just("spawn"), script_index),
    st.tuples(st.just("join"), script_index),
    st.tuples(st.just("raise")),
)
scripts = st.lists(st.lists(ops, max_size=8), min_size=1, max_size=SCRIPTS)
stops = st.one_of(
    st.none(),
    st.tuples(st.just("event"), pool_event),
    st.tuples(st.just("process"), script_index),
    st.tuples(st.just("time"), st.sampled_from([0.0, 0.5, 1.0, 2.5])),
)


def _describe(value):
    values = getattr(value, "values", None)
    return tuple(values()) if values is not None else value


def run_program(kernel, program, started, stop):
    """Run ``program`` on ``kernel``; the log of every firing."""
    env = kernel.Environment(strict=False)
    log = []

    def note(label):
        log.append((env.now, label))

    events = [env.event() for _ in range(EVENTS)]
    for index, event in enumerate(events):
        event.callbacks.append(
            lambda e, i=index: note(f"e{i} {'ok' if e.ok else 'failed'}")
        )
    processes = {}

    def trigger(index, how="succeed", by="call", at=None):
        event = events[index]
        if event.triggered:
            return
        if how == "fail":
            event.fail(KeyError(by))
        else:
            event.succeed(by, at=at)

    def body(pid, script):
        for n, op in enumerate(script):
            kind = op[0]
            label = f"p{pid}.{n}"
            note(f"{label} {kind}")
            if kind == "timeout":
                yield env.timeout(op[1])
            elif kind in ("succeed", "fail"):
                trigger(op[1], kind, label)
            elif kind == "succeed_at":
                trigger(op[1], by=label, at=env.now + op[2])
            elif kind == "call_at":
                env.call_at(env.now + op[1], note, f"{label} called")
            elif kind == "call_trigger":
                env.call_at(env.now + op[1], trigger, op[2])
            elif kind == "schedule_at":
                event = env.event()
                event.callbacks.append(lambda e, t=label: note(f"{t} fired"))
                event._triggered = True
                event._value = None
                env.schedule_at(event, env.now + op[1])
            elif kind == "spawn":
                if op[1] < len(program) and op[1] not in processes:
                    start(op[1])
            elif kind == "raise":
                raise KeyError(label)
            else:
                if kind == "wait":
                    target = events[op[1]]
                elif kind == "any_of":
                    target = env.any_of([events[i] for i in op[1]])
                elif kind == "all_of":
                    target = env.all_of([events[i] for i in op[1]])
                else:
                    target = processes.get(op[1])
                    if target is None:
                        continue
                try:
                    value = yield target
                except KeyError as exc:
                    note(f"{label} caught {exc}")
                else:
                    note(f"{label} got {_describe(value)}")
        return pid

    def start(index):
        processes[index] = env.process(body(index, program[index]))

    for index in range(started):
        start(index)

    if stop is not None:
        kind, which = stop
        until = which
        if kind == "event":
            until = events[which]
        elif kind == "process":
            until = processes.get(which, events[0])
        try:
            outcome = _describe(env.run(until=until))
        except (KeyError, RuntimeError) as exc:
            outcome = repr(exc)
        note(f"stopped {outcome}")
    env.run()
    note("drained")
    return log


@given(
    scripts,
    st.integers(1, SCRIPTS),
    stops,
)
@settings(max_examples=300, deadline=None)
def test_batched_kernel_fires_in_heap_order(program, started, stop):
    started = min(started, len(program))
    got = run_program(batched_kernel, program, started, stop)
    want = run_program(reference_engine, program, started, stop)
    assert got == want
