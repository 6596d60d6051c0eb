"""The control node (CN): a single CPU serving all coordination work.

Every cost the paper attributes to the control node -- transaction
startup, two-phase-commit coordination, message send/receive, and all
concurrency-control computation (deadlock tests, E(q), chain optimisation)
-- is a FIFO job on this one CPU.  The CN is therefore a potential
bottleneck exactly as in the paper's model.
"""

from __future__ import annotations

import math
import typing

from repro.des import Environment, Resource, Timeout
from repro.des.monitor import Counter, TimeWeighted
from repro.machine.config import MachineConfig


class ControlNode:
    """4 MIPS coordinator CPU with cost accounting."""

    def __init__(self, env: Environment, config: MachineConfig) -> None:
        self.env = env
        self.config = config
        self._trace = env.trace
        self.cpu = Resource(env, capacity=1, name="cn.cpu")
        self.busy = TimeWeighted(env.now, 0.0, name="cn.busy")
        self.cpu_ms_by_category: typing.Dict[str, float] = {}
        self.messages = Counter("cn.messages")

    def consume(
        self, cost_ms: float, category: str = "other"
    ) -> typing.Generator:
        """Process generator: hold the CN CPU for ``cost_ms`` (scaled).

        Yield from this inside a transaction/scheduler process::

            yield from cn.consume(config.sot_time_ms, "startup")
        """
        if cost_ms < 0 or math.isnan(cost_ms):
            raise ValueError(f"CPU cost must be >= 0, got {cost_ms}")
        if cost_ms == 0:
            return
        scaled = self.config.scaled(cost_ms)
        env = self.env
        busy = self.busy
        trace = self._trace
        cpu = self.cpu
        # explicit request/release (not ``with``): this generator runs
        # once per modelled CPU slice, and the context-manager protocol
        # adds two calls per slice
        req = cpu.request()
        try:
            yield req
            if busy.value != 1.0:
                busy.update(env.now, 1.0)
            if trace.enabled:
                trace.emit(
                    env.now, "cn.exec_start",
                    category=category, cost_ms=scaled,
                )
            yield Timeout(env, scaled)
            categories = self.cpu_ms_by_category
            categories[category] = categories.get(category, 0.0) + scaled
            if trace.enabled:
                trace.emit(env.now, "cn.exec_end", category=category)
            if not cpu._waiting:
                busy.update(env.now, 0.0)
        except GeneratorExit:
            # the run ended mid-slice and is closing its processes
            # (Environment.close): hand the CPU to nobody
            raise
        except BaseException:
            cpu.release(req)
            raise
        cpu.release(req)

    def send_message(self) -> typing.Generator:
        """CPU work for sending one message (plus wire delay if any)."""
        yield from self.consume(self.config.msgtime_ms, "message")
        self.messages.increment()
        if self.config.netdelay_ms > 0:
            yield self.env.timeout(self.config.netdelay_ms)

    def receive_message(self) -> typing.Generator:
        """CPU work for receiving one message."""
        yield from self.consume(self.config.msgtime_ms, "message")
        self.messages.increment()

    def utilisation(self, now: typing.Optional[float] = None) -> float:
        """Fraction of time the CN CPU was busy since the last reset."""
        value = self.busy.time_average(self.env.now if now is None else now)
        return 0.0 if math.isnan(value) else value

    def timeseries_probes(
        self,
    ) -> typing.Dict[str, typing.Dict[str, typing.Any]]:
        """Per-window CN utilisation and instantaneous CPU queue depth."""
        from repro.obs.timeseries import (
            gauge,
            size_hist,
            utilisation_hist,
            windowed_rate,
        )

        return {
            "cn.util": {
                "probe": windowed_rate(self.busy.integral),
                "unit": "frac",
                "hist": utilisation_hist(),
            },
            "cn.queue": {
                "probe": gauge(lambda: self.cpu.queue_length),
                "unit": "jobs",
                "hist": size_hist(),
            },
        }

    def reset_statistics(self) -> None:
        """Restart utilisation averaging and cost accounting (warm-up)."""
        self.busy.reset(self.env.now)
        self.cpu_ms_by_category.clear()
        self.messages.reset()
