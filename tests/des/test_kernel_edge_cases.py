"""Edge-case tests for the DES kernel's interaction semantics."""

import pytest

from repro.des import Environment

from tests.machine.reference_cn import Resource


@pytest.fixture
def env():
    return Environment()


class TestProcessChains:
    def test_deep_process_nesting(self, env):
        """100 levels of processes waiting on processes."""

        def nested(env, depth):
            if depth == 0:
                yield env.timeout(1)
                return 0
            value = yield env.process(nested(env, depth - 1))
            return value + 1

        assert env.run(until=env.process(nested(env, 100))) == 100

    def test_many_processes_same_instant(self, env):
        """1000 processes scheduled at one instant all run, in order."""
        order = []

        def worker(env, i):
            yield env.timeout(5)
            order.append(i)

        for i in range(1000):
            env.process(worker(env, i))
        env.run()
        assert order == list(range(1000))


class TestResourceStress:
    def test_release_then_immediate_rerequest(self, env):
        """A releasing process re-requesting in the same instant queues
        behind existing waiters (no barging)."""
        res = Resource(env, capacity=1)
        order = []

        def greedy(env, res):
            with res.request() as req:
                yield req
                order.append("greedy-1")
                yield env.timeout(10)
            with res.request() as req2:
                yield req2
                order.append("greedy-2")

        def patient(env, res):
            yield env.timeout(1)
            with res.request() as req:
                yield req
                order.append("patient")
                yield env.timeout(1)

        env.process(greedy(env, res))
        env.process(patient(env, res))
        env.run()
        assert order == ["greedy-1", "patient", "greedy-2"]


class TestTriggersInABatch:
    """A ``succeed()``/``fail()`` at now is a call in the instant's batch."""

    def test_run_until_event_stops_inside_the_batch(self, env):
        log = []
        target = env.event()
        target.callbacks.append(lambda event: log.append("target"))

        def waiter():
            value = yield target
            log.append(("woken", value))
            env.call_at(env.now, log.append, "woken's call")

        env.process(waiter())
        env.call_at(0.0, log.append, "before")
        target.succeed("value")
        env.call_at(0.0, log.append, "after")
        assert env.run(until=target) == "value"
        # its callbacks ran (the waiter's resume among them); the rest of
        # the instant did not
        assert log == ["before", "target", ("woken", "value")]
        assert env.now == 0.0 and env.events_processed == 1
        env.run()
        assert log[3:] == ["after", "woken's call"]

    def test_run_until_a_process_stops_at_its_end(self, env):
        log = []

        def short():
            yield env.timeout(1.0)
            return "done"

        process = env.process(short())
        env.run(until=0.5)
        # due at 1.0 after the process's timeout, so it registers its call
        # after the process's end joined that instant's batch
        env.timeout(0.5).callbacks.append(
            lambda event: env.call_at(env.now, log.append, "after the end")
        )
        assert env.run(until=process) == "done"
        assert log == [] and env.now == 1.0
        env.run()
        assert log == ["after the end"]

    def test_step_fires_the_batch_with_the_triggers_it_causes(self, env):
        log = []
        first = env.event()
        second = env.event()
        first.callbacks.append(lambda event: second.succeed())
        second.callbacks.append(lambda event: log.append("second"))
        env.call_at(0.0, log.append, "call")
        first.succeed()
        later = env.timeout(1.0)
        later.callbacks.append(lambda event: log.append("later"))
        env.step()
        assert log == ["call", "second"]
        assert first.processed and second.processed
        assert env.events_processed == 1
        env.step()
        assert log == ["call", "second", "later"] and env.now == 1.0

    def test_step_leaves_the_batch_for_an_entry_that_comes_between(self, env):
        log = []
        env.call_at(0.0, log.append, "call")
        between = env.timeout(0.0)
        between.callbacks.append(lambda event: log.append("timeout"))
        trigger = env.event()
        trigger.callbacks.append(lambda event: log.append("trigger"))
        trigger.succeed()
        env.step()
        assert log == ["call"] and not trigger.processed
        env.step()
        assert log == ["call", "timeout"]
        env.step()
        assert log == ["call", "timeout", "trigger"]
        assert env.events_processed == 3

    @pytest.mark.parametrize("strict", [True, False])
    def test_failure_from_a_batch_reaches_the_process(self, strict):
        env = Environment(strict=strict)
        log = []
        doomed = env.event()

        def catcher():
            try:
                yield doomed
            except KeyError as exc:
                log.append(("caught", exc.args[0]))

        def waiter():
            yield doomed

        def failer():
            yield env.timeout(1.0)
            doomed.fail(KeyError("boom"))
            env.call_at(env.now, log.append, "rest of the instant")

        env.process(catcher())
        uncaught = env.process(waiter())
        env.process(failer())
        if strict:
            with pytest.raises(KeyError):
                env.run()
            assert log == [("caught", "boom")]
            # the raise left the rest of the batch pending
            env.run()
        else:
            env.run()
            assert not uncaught.ok
            assert isinstance(uncaught.value, KeyError)
        assert log == [("caught", "boom"), "rest of the instant"]
        assert env.now == 1.0
