"""Edge-case tests for the DES kernel's interaction semantics."""

import pytest

from repro.des import Environment, Interrupt

from tests.machine.reference_cn import Resource


@pytest.fixture
def env():
    return Environment()


class TestInterruptSemantics:
    def test_interrupting_a_resource_waiter_leaves_queue_clean(self, env):
        """A process interrupted while queued for a Resource must not
        receive the grant later (its request is withdrawn)."""
        res = Resource(env, capacity=1)
        grants = []

        def holder(env, res):
            with res.request() as req:
                yield req
                yield env.timeout(100)

        def waiter(env, res, name):
            req = res.request()
            try:
                yield req
                grants.append(name)
                res.release(req)
            except Interrupt:
                req.cancel()

        env.process(holder(env, res))
        victim = env.process(waiter(env, res, "victim"))
        env.process(waiter(env, res, "survivor"))

        def controller(env, victim):
            yield env.timeout(50)
            victim.interrupt()

        env.process(controller(env, victim))
        env.run()
        assert grants == ["survivor"]

    def test_interrupt_does_not_cancel_pending_timeout_event(self, env):
        """The interrupted process resumes control flow; the abandoned
        timeout stays in the queue but wakes nobody."""
        log = []

        def sleeper(env):
            try:
                yield env.timeout(100)
                log.append("overslept")
            except Interrupt:
                log.append(("interrupted", env.now))
                yield env.timeout(5)
                log.append(("resumed", env.now))

        target = env.process(sleeper(env))

        def controller(env, target):
            yield env.timeout(10)
            target.interrupt()

        env.process(controller(env, target))
        env.run()
        assert log == [("interrupted", 10), ("resumed", 15)]

    def test_double_interrupt_before_resume_raises_once_each(self, env):
        hits = []

        def sleeper(env):
            for _ in range(2):
                try:
                    yield env.timeout(100)
                except Interrupt as exc:
                    hits.append(exc.cause)

        target = env.process(sleeper(env))

        def controller(env, target):
            yield env.timeout(1)
            target.interrupt("first")
            yield env.timeout(1)
            target.interrupt("second")

        env.process(controller(env, target))
        env.run()
        assert hits == ["first", "second"]


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
