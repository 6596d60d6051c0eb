"""Unit tests for the event primitives."""

import gc

import pytest

from repro.des import Environment
from repro.des.events import AllOf, AnyOf, ConditionValue, Event


def reaches(root, target, env):
    """Whether ``target`` is reachable from ``root`` through events and
    containers (not through the environment, which reaches everything)."""
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if obj is target:
            return True
        if obj is env or id(obj) in seen:
            continue
        if not isinstance(obj, (Event, ConditionValue, list, tuple, dict)):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return False


@pytest.fixture
def env():
    return Environment()


class TestEventLifecycle:
    def test_new_event_is_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(RuntimeError):
            env.event().value

    def test_succeed_sets_value(self, env):
        event = env.event().succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_with_none_value(self, env):
        event = env.event().succeed()
        assert event.value is None

    def test_double_succeed_raises(self, env):
        event = env.event().succeed()
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_then_succeed_raises(self, env):
        event = env.event().fail(ValueError("boom"))
        with pytest.raises(RuntimeError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_fail_marks_not_ok(self, env):
        event = env.event().fail(ValueError("boom"))
        assert event.triggered
        assert not event.ok

    def test_callbacks_run_on_processing(self, env):
        seen = []
        event = env.event()
        event.callbacks.append(seen.append)
        event.succeed("x")
        assert seen == []  # not yet processed
        env.run()
        assert seen == [event]
        assert event.processed


class TestTimeout:
    def test_fires_at_delay(self, env):
        env.run(until=env.timeout(7.5))
        assert env.now == 7.5

    def test_zero_delay_allowed(self, env):
        env.run(until=env.timeout(0))
        assert env.now == 0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_carries_value(self, env):
        value = env.run(until=env.timeout(1, value="hello"))
        assert value == "hello"

    def test_timeouts_fire_in_time_order(self, env):
        fired = []
        for delay in (5, 1, 3):
            t = env.timeout(delay, value=delay)
            t.callbacks.append(lambda e: fired.append(e.value))
        env.run()
        assert fired == [1, 3, 5]

    def test_same_time_fifo_order(self, env):
        fired = []
        for tag in ("first", "second", "third"):
            t = env.timeout(4, value=tag)
            t.callbacks.append(lambda e: fired.append(e.value))
        env.run()
        assert fired == ["first", "second", "third"]


class TestConditions:
    def test_all_of_waits_for_every_event(self, env):
        events = [env.timeout(d) for d in (1, 2, 3)]
        env.run(until=AllOf(env, events))
        assert env.now == 3

    def test_any_of_fires_on_first(self, env):
        events = [env.timeout(d) for d in (5, 2, 9)]
        env.run(until=AnyOf(env, events))
        assert env.now == 2

    def test_empty_all_of_fires_immediately(self, env):
        cond = AllOf(env, [])
        env.run(until=cond)
        assert env.now == 0

    def test_condition_value_exposes_sub_values(self, env):
        a = env.timeout(1, value="a")
        b = env.timeout(2, value="b")
        value = env.run(until=AllOf(env, [a, b]))
        assert isinstance(value, ConditionValue)
        assert value[a] == "a"
        assert value[b] == "b"
        assert sorted(value.values()) == ["a", "b"]
        assert a in value and len(value) == 2

    def test_condition_value_unknown_event_keyerror(self, env):
        a = env.timeout(1)
        value = env.run(until=AllOf(env, [a]))
        with pytest.raises(KeyError):
            value[env.event()]

    def test_failing_sub_event_fails_condition(self, env):
        good = env.timeout(5)
        bad = env.event()
        cond = AllOf(env, [good, bad])
        bad.fail(RuntimeError("sub failed"))
        with pytest.raises(RuntimeError, match="sub failed"):
            env.run(until=cond)

    def test_mixed_environment_rejected(self, env):
        other = Environment()
        with pytest.raises(ValueError):
            AllOf(env, [env.timeout(1), other.timeout(1)])

    def test_any_of_won_by_its_timer_drops_the_losing_event(self, env):
        """The losing event keeps the condition in its callbacks until it
        is dropped; the condition must not refer back, or the pair is a
        cycle only the cyclic collector frees (the schedulers' DELAY
        fallback parks on exactly this shape)."""
        wake = env.event()
        cond = AnyOf(env, [wake, env.timeout(5)])
        env.run(until=cond)
        assert not wake.triggered
        assert any(cb.__self__ is cond for cb in wake.callbacks)
        assert not reaches(cond, wake, env)

    def test_failed_condition_drops_its_sub_events(self, env):
        pending = env.event()
        bad = env.event()
        cond = AnyOf(env, [pending, bad])
        bad.fail(RuntimeError("sub failed"))
        with pytest.raises(RuntimeError):
            env.run(until=cond)
        assert not reaches(cond, pending, env)

    def test_all_of_with_already_processed_event(self, env):
        early = env.timeout(1)
        env.run(until=early)
        late = env.timeout(4)
        env.run(until=AllOf(env, [early, late]))
        assert env.now == 5


class TestEventRepr:
    def test_repr_states(self, env):
        event = env.event()
        assert "pending" in repr(event)
        event.succeed()
        assert "triggered" in repr(event)
        env.run()
        assert "processed" in repr(event)
