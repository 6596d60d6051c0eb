"""Unit tests for the Environment event loop."""

import weakref

import pytest

from repro.des import Environment, StopSimulation


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_starts_at_zero(self, env):
        assert env.now == 0.0

    def test_custom_initial_time(self):
        assert Environment(initial_time=100.0).now == 100.0

    def test_run_until_time_sets_clock_exactly(self, env):
        env.timeout(3)
        env.run(until=10)
        assert env.now == 10

    def test_run_until_is_end_exclusive(self, env):
        """An event scheduled at exactly ``until`` must not fire (simpy
        semantics); the clock still advances to ``until``."""
        fired = []

        def proc(env):
            yield env.timeout(10)
            fired.append(env.now)

        env.process(proc(env))
        env.run(until=10)
        assert fired == []
        assert env.now == 10
        env.run()  # the event is still queued and fires on resume
        assert fired == [10]

    def test_run_until_fires_events_strictly_before_boundary(self, env):
        fired = []

        def proc(env, delay):
            yield env.timeout(delay)
            fired.append(env.now)

        env.process(proc(env, 9.999))
        env.process(proc(env, 10))
        env.process(proc(env, 10.001))
        env.run(until=10)
        assert fired == [9.999]

    def test_run_until_past_raises(self):
        env = Environment(initial_time=50)
        with pytest.raises(ValueError):
            env.run(until=10)

    def test_run_drains_queue(self, env):
        env.timeout(4)
        env.timeout(9)
        env.run()
        assert env.now == 9

    def test_peek_empty_queue_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_next_event_time(self, env):
        env.timeout(12)
        env.timeout(3)
        assert env.peek() == 3

    def test_step_on_empty_queue_raises(self, env):
        with pytest.raises(StopSimulation):
            env.step()


class TestRunUntilEvent:
    def test_returns_event_value(self, env):
        assert env.run(until=env.timeout(2, value="done")) == "done"

    def test_already_processed_event_returns_immediately(self, env):
        t = env.timeout(1, value="v")
        env.run()
        assert env.run(until=t) == "v"

    def test_failed_event_raises(self, env):
        event = env.event()
        event.fail(KeyError("nope"))
        with pytest.raises(KeyError):
            env.run(until=event)

    def test_never_firing_event_raises_runtime_error(self, env):
        pending = env.event()
        env.timeout(5)
        with pytest.raises(RuntimeError):
            env.run(until=pending)

    def test_stops_exactly_when_event_fires(self, env):
        env.timeout(100)  # later event must not run
        env.run(until=env.timeout(2))
        assert env.now == 2


class TestProcessIntegration:
    def test_simple_process_advances_clock(self, env):
        def proc(env):
            yield env.timeout(5)
            yield env.timeout(5)

        env.process(proc(env))
        env.run()
        assert env.now == 10

    def test_ten_thousand_timeouts_end_at_their_sum(self, env):
        def ticker(env):
            for _ in range(10_000):
                yield env.timeout(1.0)

        env.process(ticker(env))
        env.run()
        assert env.now == 10_000.0

    def test_process_return_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return "result"

        assert env.run(until=env.process(proc(env))) == "result"

    def test_process_waits_on_process(self, env):
        def child(env):
            yield env.timeout(3)
            return 7

        def parent(env):
            value = yield env.process(child(env))
            return value * 2

        assert env.run(until=env.process(parent(env))) == 14

    def test_waiting_on_finished_process(self, env):
        def child(env):
            yield env.timeout(1)
            return "early"

        def parent(env, child_proc):
            yield env.timeout(10)
            value = yield child_proc
            return value

        child_proc = env.process(child(env))
        parent_proc = env.process(parent(env, child_proc))
        assert env.run(until=parent_proc) == "early"
        assert env.now == 10

    def test_exception_in_process_propagates_in_strict_mode(self, env):
        def bad(env):
            yield env.timeout(1)
            raise ValueError("inside process")

        env.process(bad(env))
        with pytest.raises(ValueError, match="inside process"):
            env.run()

    def test_exception_fails_process_event_in_lenient_mode(self):
        env = Environment(strict=False)

        def bad(env):
            yield env.timeout(1)
            raise ValueError("inside process")

        def watcher(env, bad_proc):
            try:
                yield bad_proc
            except ValueError:
                return "caught"

        bad_proc = env.process(bad(env))
        assert env.run(until=env.process(watcher(env, bad_proc))) == "caught"

    def test_yielding_non_event_raises(self, env):
        def bad(env):
            yield 42

        env.process(bad(env))
        with pytest.raises(TypeError):
            env.run()

    def test_non_generator_rejected(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_active_process_visible_during_resume(self, env):
        observed = []

        def proc(env):
            observed.append(env.active_process)
            yield env.timeout(1)

        p = env.process(proc(env))
        env.run()
        assert observed == [p]
        assert env.active_process is None

    def test_is_alive_transitions(self, env):
        def proc(env):
            yield env.timeout(2)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_process_repr_mentions_name(self, env):
        def myproc(env):
            yield env.timeout(1)

        p = env.process(myproc(env), name="worker-3")
        assert "worker-3" in repr(p)
        env.run()
        assert "done" in repr(p)


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_trace():
            env = Environment()
            trace = []

            def proc(env, name, delays):
                for d in delays:
                    yield env.timeout(d)
                    trace.append((env.now, name))

            env.process(proc(env, "a", [1, 2, 3]))
            env.process(proc(env, "b", [2, 2, 2]))
            env.process(proc(env, "c", [3, 1, 2]))
            env.run()
            return trace

        assert build_trace() == build_trace()

    def test_stepping_replays_run(self):
        """``step`` is the run loop bounded to one heap entry: driven a
        step at a time, a run fires the same entries, calls the
        progress hook at the same counts and ends at the same count."""

        def drive(stepped):
            env = Environment()
            seen = []
            env.progress_every = 3
            env.progress_hook = lambda now, count: seen.append(
                ("hook", now, count)
            )

            def proc(name, delays):
                for delay in delays:
                    yield env.timeout(delay)
                    seen.append((env.now, name))
                    env.call_at(env.now + 1.0, seen.append, (name, "call"))
                    env.call_at(env.now + 1.0, seen.append, (name, "again"))

            env.process(proc("a", [1, 2, 3]))
            env.process(proc("b", [2, 2, 2]))
            if stepped:
                steps = 0
                while env.peek() < 5.0:
                    env.step()
                    steps += 1
                assert steps == env.events_processed
            else:
                env.run(until=5.0)
            return seen, env.events_processed

        assert drive(stepped=True) == drive(stepped=False)


class TestAbsoluteTime:
    """``schedule_at`` and ``succeed(at=...)`` fire at the float they are
    given."""

    def test_fires_at_exactly_the_given_time(self, env):
        # 1.1 + (7.3 - 1.1) rounds to 7.299999999999999
        assert 1.1 + (7.3 - 1.1) != 7.3
        fired = []

        def proc(env):
            yield env.timeout(1.1)
            at = env.event()
            at.callbacks.append(lambda _e: fired.append(env.now))
            yield at.succeed("v", at=7.3)

        env.process(proc(env))
        env.run()
        assert fired == [7.3]
        assert env.now == 7.3

    def test_schedule_at_takes_a_triggered_event(self, env):
        event = env.event()
        event._triggered = True
        event._value = "v"
        env.schedule_at(event, 2.5)
        assert env.peek() == 2.5
        assert env.run(until=event) == "v"
        assert env.now == 2.5

    def test_fifo_with_same_time_events(self, env):
        order = []
        first = env.timeout(5.0)
        at = env.event().succeed(at=5.0)
        last = env.timeout(5.0)
        for name, event in (("first", first), ("at", at), ("last", last)):
            event.callbacks.append(lambda _e, name=name: order.append(name))
        env.run()
        assert order == ["first", "at", "last"]

    def test_at_now_fires_this_instant(self, env):
        env.run(until=3.0)
        at = env.event().succeed(at=3.0)
        env.run()
        assert at.processed and env.now == 3.0

    @pytest.mark.parametrize("when", [2.999999, float("nan")])
    def test_time_in_the_past_raises(self, env, when):
        env.run(until=3.0)
        event = env.event()
        with pytest.raises(ValueError):
            event.succeed(at=when)
        assert not event.triggered
        with pytest.raises(ValueError):
            env.schedule_at(env.event(), when)
        assert env.peek() == float("inf")


class TestCallAt:
    """``call_at`` calls due at one instant share one heap entry, yet
    fire in exactly the order one event per call would."""

    def test_calls_fire_at_the_given_time_as_one_entry(self, env):
        fired = []
        env.timeout(1.1)
        env.run()
        for name in "abc":
            env.call_at(7.3, lambda name: fired.append((env.now, name)), name)
        assert env.peek() == 7.3
        env.run()
        assert fired == [(7.3, "a"), (7.3, "b"), (7.3, "c")]
        assert env.events_processed == 2  # the timeout and one batch

    def test_event_scheduled_between_two_calls_fires_between_them(self, env):
        order = []
        env.call_at(5.0, order.append, "first")
        env.timeout(5.0).callbacks.append(lambda _e: order.append("event"))
        env.call_at(5.0, order.append, "last")
        env.run()
        assert order == ["first", "event", "last"]

    def test_call_added_to_the_running_batch(self, env):
        order = []

        def first(_arg):
            order.append("first")
            # one event per call would give: second (already queued),
            # then this timeout, then the call added after it
            env.timeout(0).callbacks.append(lambda _e: order.append("event"))
            env.call_at(env.now, order.append, "added")

        env.call_at(5.0, first, None)
        env.call_at(5.0, order.append, "second")
        env.run()
        assert order == ["first", "second", "event", "added"]

    def test_batch_of_stale_calls(self, env):
        """Like a DPN timer re-armed before it fires: every call sees a
        newer generation and does nothing."""
        fired = []
        generation = [0]

        def complete(armed):
            if armed == generation[0]:
                fired.append(armed)

        for _ in range(3):
            generation[0] += 1
            env.call_at(4.0, complete, generation[0])
        generation[0] += 1
        env.run()
        assert fired == [] and env.now == 4.0
        assert env.peek() == float("inf")
        env.call_at(4.0, fired.append, "later")
        env.run()
        assert fired == ["later"]

    @pytest.mark.parametrize("when", [2.999999, float("nan")])
    def test_time_in_the_past_raises(self, env, when):
        env.run(until=3.0)
        with pytest.raises(ValueError):
            env.call_at(when, print, None)
        assert env.peek() == float("inf")
        assert env._batches == {}

    def test_raising_call_propagates_and_keeps_the_rest_pending(self, env):
        order = []

        def boom(_arg):
            raise RuntimeError("boom")

        env.call_at(5.0, order.append, "before")
        env.call_at(5.0, boom, None)
        env.call_at(5.0, order.append, "after")
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
        assert order == ["before"]
        assert env.now == 5.0 and env.peek() == 5.0
        env.run()
        assert order == ["before", "after"]

    def test_close_drops_pending_batches(self, env):
        class Target:
            def method(self, _arg):
                raise AssertionError("a closed environment fired a call")

        target = Target()
        alive = weakref.ref(target)
        env.call_at(5.0, target.method, None)
        env.call_at(6.0, target.method, None)
        env.close()
        del target
        # freed by reference counting alone: nothing cyclic is left
        assert alive() is None
        assert env.peek() == float("inf") and env._batches == {}
