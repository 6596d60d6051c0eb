"""Unit tests for the ``Resource`` the control-node oracle grants from."""

import pytest

from repro.des import Environment

from tests.machine.reference_cn import Resource


@pytest.fixture
def env():
    return Environment()


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_immediate_grant_when_free(self, env):
        res = Resource(env, capacity=1)
        req = res.request()
        assert req.triggered
        assert res.in_use == 1

    def test_second_request_queues(self, env):
        res = Resource(env, capacity=1)
        res.request()
        second = res.request()
        assert not second.triggered
        assert res.queue_length == 1

    def test_release_grants_next_waiter(self, env):
        res = Resource(env, capacity=1)
        first = res.request()
        second = res.request()
        res.release(first)
        assert second.triggered
        assert res.in_use == 1
        assert res.queue_length == 0

    def test_fifo_granting_order(self, env):
        res = Resource(env, capacity=1)
        order = []

        def user(env, res, name, hold):
            with res.request() as req:
                yield req
                order.append(name)
                yield env.timeout(hold)

        for name in ("a", "b", "c"):
            env.process(user(env, res, name, hold=2))
        env.run()
        assert order == ["a", "b", "c"]
        assert env.now == 6

    def test_multi_server_parallelism(self, env):
        res = Resource(env, capacity=2)
        done = []

        def user(env, res, name):
            with res.request() as req:
                yield req
                yield env.timeout(10)
                done.append((env.now, name))

        for name in ("a", "b", "c"):
            env.process(user(env, res, name))
        env.run()
        # two run in parallel, third waits for a free server
        assert done == [(10, "a"), (10, "b"), (20, "c")]

    def test_cancel_waiting_request(self, env):
        res = Resource(env, capacity=1)
        first = res.request()
        second = res.request()
        third = res.request()
        second.cancel()
        res.release(first)
        assert third.triggered
        assert not second.triggered

    def test_release_of_waiting_request_withdraws_it(self, env):
        res = Resource(env, capacity=1)
        res.request()
        waiting = res.request()
        res.release(waiting)
        assert res.queue_length == 0

    def test_context_manager_releases_on_exception(self, env):
        res = Resource(env, capacity=1)

        def failing_user(env, res):
            with res.request() as req:
                yield req
                raise RuntimeError("boom")

        env.process(failing_user(env, res))
        with pytest.raises(RuntimeError):
            env.run()
        assert res.in_use == 0

    def test_utilisation_accounting(self, env):
        res = Resource(env, capacity=3)
        reqs = [res.request() for _ in range(3)]
        assert res.in_use == 3
        res.release(reqs[0])
        assert res.in_use == 2

