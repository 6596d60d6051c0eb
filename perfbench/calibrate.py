"""A fixed pure-Python loop that gauges how fast the host runs right now.

On a shared host the cores' speed moves by tens of percent within
seconds (a fixed loop ran 35-45 M iterations/s in consecutive 3 s
windows on a 2-core VM, with no steal time and CPU time equal to wall
time).  :class:`HostGauge` runs the loop from a ``SIGALRM`` handler
every 50 ms while a timed block runs, so its samples see the same
slowdowns the block does; the benchmark divides the block's time (less
the handler's own) by the mean slowness, so the result reads as time at
one nominal host speed.  The loop imports nothing from the package: no
change to the program can move it.
"""

from __future__ import annotations

import signal
import statistics
import time

#: the loop's time at the nominal host speed timings are scaled to
NOMINAL_S = 0.001
#: iterations of the loop (about 1 ms)
ROUNDS = 8_000
#: how often a running gauge samples the loop
INTERVAL_S = 0.05
#: back-to-back samples of one snapshot
SNAPSHOT_SAMPLES = 20


def _step(acc: int, value: int) -> int:
    return (acc * 31 + value) % 1009


def _timed_loop() -> float:
    started = time.perf_counter()
    acc = 0
    for value in range(ROUNDS):
        acc = _step(acc, value)
    return time.perf_counter() - started


def host_slowness() -> float:
    """A snapshot of the host's slowness: 1.0 at nominal speed, 1.5 if
    a fixed amount of work takes half as long again."""
    samples = [_timed_loop() for _ in range(SNAPSHOT_SAMPLES)]
    return statistics.mean(samples) / NOMINAL_S


class HostGauge:
    """Samples the loop every ``INTERVAL_S`` while the block runs.

    ``spent_s`` is the time the samples took; a timing made inside the
    block subtracts the part of it that fell into the timing.
    """

    def __init__(self) -> None:
        self.samples: list = []
        self.spent_s = 0.0
        self._previous: object = None

    def _sample(self, *_: object) -> None:
        took = _timed_loop()
        self.samples.append(took)
        self.spent_s += took

    def __enter__(self) -> "HostGauge":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)  # type: ignore[arg-type]
        if not self.samples:  # a block shorter than one interval
            self.samples.append(_timed_loop())

    @property
    def slowness(self) -> float:
        """Mean slowness over the block, as :func:`host_slowness`."""
        return statistics.mean(self.samples) / NOMINAL_S
