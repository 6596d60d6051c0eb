"""Property tests: event ordering is deterministic under same-time ties.

The kernel's heap entries are ``(time, seq, event)``; the monotone
``seq`` makes equal-time events fire in the order they were scheduled
(FIFO).  Every downstream reproducibility
claim -- byte-identical reruns, pool-size-independent batch results,
observation-only tracing -- rests on this.
"""

from hypothesis import given, settings, strategies as st

from repro.des import Environment

#: a small value pool makes same-time ties overwhelmingly likely
delay_lists = st.lists(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 5.0]),
    min_size=1,
    max_size=40,
)


def _fire_order(delays):
    env = Environment()
    fired = []

    def proc(index, delay):
        yield env.timeout(delay)
        fired.append((env.now, index))

    for index, delay in enumerate(delays):
        env.process(proc(index, delay), name=f"p{index}")
    env.run(until=1000.0)
    return fired


@given(delay_lists)
@settings(max_examples=200)
def test_same_time_events_fire_fifo(delays):
    fired = _fire_order(delays)
    assert len(fired) == len(delays)
    # stable sort by delay == FIFO within each timestamp
    expected = sorted(range(len(delays)), key=lambda i: delays[i])
    assert [index for _, index in fired] == expected
    for (time, _), (index, delay) in zip(fired, sorted(
            enumerate(delays), key=lambda pair: pair[1])):
        assert time == delay


@given(delay_lists)
@settings(max_examples=100)
def test_rerun_is_deterministic(delays):
    assert _fire_order(delays) == _fire_order(delays)


@given(st.integers(min_value=1, max_value=20))
@settings(max_examples=50)
def test_zero_delay_chains_preserve_spawn_order(n):
    """Processes spawning work at the *current* instant stay FIFO too."""
    env = Environment()
    fired = []

    def child(index):
        yield env.timeout(0.0)
        fired.append(index)

    def parent():
        for index in range(n):
            env.process(child(index))
        yield env.timeout(0.0)

    env.process(parent())
    env.run(until=10.0)
    assert fired == list(range(n))
