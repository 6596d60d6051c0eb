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
