"""Discrete-event simulation kernel.

A small, self-contained, generator-based discrete-event simulation engine
in the style of simpy (which is not available in this environment).  The
paper's simulator runs in integer "clocks" of 1 ms; this kernel keeps time
as a float but all built-in machine models use millisecond units.

Public surface:

- :class:`Environment` -- event loop, clock, process spawning.
- :class:`Event` / :class:`Timeout` / :class:`AllOf` / :class:`AnyOf` --
  awaitable events yielded from process generators.
- :class:`Process` -- a running generator; itself awaitable.
- :class:`RandomStreams` -- named, independently-seeded RNG streams.
- :class:`monitor` -- time-weighted and tally statistics collectors.
"""

from repro.des.engine import Environment, StopSimulation
from repro.des.events import AllOf, AnyOf, Event, Timeout
from repro.des.process import Process
from repro.des.rng import RandomStreams
from repro.des.monitor import Counter, Tally, TimeWeighted

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "Environment",
    "Event",
    "Process",
    "RandomStreams",
    "StopSimulation",
    "Tally",
    "TimeWeighted",
    "Timeout",
]
