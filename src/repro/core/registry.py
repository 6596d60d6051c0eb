"""Scheduler registry: name -> (class, family, description).

The whole roster -- the six schedulers of the paper, the C2PL+M alias,
the extension variants and the modern families of
:mod:`repro.schedulers.modern` -- is one table, :data:`ROSTER`.  Each
entry names its class as ``"module:Class"``, and :func:`create` imports
that module on first use, so a run loads only the scheduler it names;
listing the roster (:func:`entries`, :func:`grid_schedulers`) loads no
policy module at all.

Families group the roster for reporting:

``paper``
    The 1991 line-up the paper compares (Section 4).
``extension``
    Variants this repository adds for ablations (plain 2PL,
    resource-aware LOW).
``modern``
    Post-1991 scheduler families (DGCC, conflict-aware reordering,
    conflict-prediction admission).
"""

from __future__ import annotations

import importlib
import re
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import Scheduler
    from repro.des import Environment
    from repro.machine.config import MachineConfig
    from repro.machine.control_node import ControlNode

SchedulerFactory = typing.Callable[
    ["Environment", "MachineConfig", "ControlNode"], "Scheduler"
]

#: names in the paper's reporting order
PAPER_SCHEDULERS = ("NODC", "ASL", "GOW", "LOW", "C2PL", "OPT")

#: the modern families, in arena reporting order
MODERN_SCHEDULERS = ("DGCC", "CAR", "PRED")

#: family tags accepted by :func:`register`
FAMILIES = ("paper", "extension", "modern")


class Parameter(typing.NamedTuple):
    """The one tunable a ``NAME(P=v)`` form sets: ``P`` -> ``kwarg``."""

    letter: str
    kwarg: str
    parse: typing.Callable[[str], typing.Any]


class SchedulerEntry(typing.NamedTuple):
    """One registered scheduler: how to build it and how to present it.

    ``target`` is ``"module:Class"`` in :data:`ROSTER` (the module is
    imported on first :func:`create`) and the factory callable given to
    :func:`register`; either is called as
    ``target(env, config, control_node, **kwargs)``.  ``grid`` marks
    entries that experiment sweeps should include by default; aliases
    that need special harness treatment (C2PL+M's MPL sweep) have
    ``grid=False``.
    """

    name: str
    target: typing.Union[str, SchedulerFactory]
    family: str
    description: str
    grid: bool = True
    kwargs: typing.Mapping[str, typing.Any] = {}
    parameter: typing.Optional[Parameter] = None


#: every built-in scheduler (:func:`register` adds more at run time)
ROSTER = (
    SchedulerEntry(
        "NODC", "repro.core.nodc:NODCScheduler", "paper",
        "No concurrency control: full-batch serial execution",
    ),
    SchedulerEntry(
        "ASL", "repro.core.asl:ASLScheduler", "paper",
        "All locks at start; start only when every lock is free",
    ),
    SchedulerEntry(
        "GOW", "repro.core.gow:GOWScheduler", "paper",
        "Greedy on WTPG: admit only chain-form conflict patterns",
    ),
    SchedulerEntry(
        "LOW", "repro.core.low:LOWScheduler", "paper",
        "Least-overlapping-first on WTPG with K-conflict admission (K=2)",
        kwargs={"k": 2}, parameter=Parameter("K", "k", int),
    ),
    SchedulerEntry(
        "C2PL", "repro.core.c2pl:C2PLScheduler", "paper",
        "Cautious 2PL: delay any grant that predicts a deadlock",
    ),
    # C2PL+M is C2PL run under a finite MPL; the harness picks the MPL,
    # so plain sweeps must not pick it up (grid=False).
    SchedulerEntry(
        "C2PL+M", "repro.core.c2pl:C2PLScheduler", "paper",
        "C2PL under the best finite multiprogramming level", grid=False,
    ),
    SchedulerEntry(
        "OPT", "repro.core.opt:OPTScheduler", "paper",
        "Optimistic execution with backward validation at commit",
    ),
    # Plain strict 2PL (deadlock detection + youngest-victim restart):
    # the baseline the paper dismisses up front; included for ablations.
    SchedulerEntry(
        "2PL", "repro.core.twopl:TwoPLScheduler", "extension",
        "Strict 2PL with deadlock detection and youngest-victim restart",
    ),
    # Resource-aware LOW (the paper's "further work"): E() weights
    # include current DPN scan backlog.
    SchedulerEntry(
        "LOW-LB", "repro.core.lowlb:LOWLBScheduler", "extension",
        "Resource-aware LOW: E(q) weights include DPN scan backlog (K=2)",
        kwargs={"k": 2},
    ),
    SchedulerEntry(
        "DGCC", "repro.schedulers.modern.dgcc:DGCCScheduler", "modern",
        "Dependency-graph batch execution over declared access sets (B=8)",
        parameter=Parameter("B", "batch_size", int),
    ),
    SchedulerEntry(
        "CAR", "repro.schedulers.modern.reorder:ConflictReorderScheduler",
        "modern",
        "Conflict-aware reordering into serial execution queues (Q=4)",
        parameter=Parameter("Q", "num_queues", int),
    ),
    SchedulerEntry(
        "PRED", "repro.schedulers.modern.predict:ConflictPredictScheduler",
        "modern", "Online conflict-prediction admission control (T=0.5)",
        parameter=Parameter("T", "threshold", float),
    ),
)

_REGISTRY: typing.Dict[str, SchedulerEntry] = {
    entry.name: entry for entry in ROSTER
}

#: ``NAME(P=value)``, read from a key
_PARAMETERISED = re.compile(
    r"(?P<base>.+)\((?P<letter>\w+)=(?P<value>[^()]*)\)"
)


def _key(name: str) -> str:
    """The registry key of ``name``: upper case, whitespace removed."""
    return "".join(name.split()).upper()


def register(
    name: str,
    factory: SchedulerFactory,
    *,
    family: str = "paper",
    description: str = "",
    grid: bool = True,
    replace: bool = False,
) -> None:
    """Add a named scheduler factory.

    Duplicate names raise ``ValueError`` (pass ``replace=True`` to
    overwrite deliberately, e.g. when a test swaps in a stub).
    """
    key = _key(name)
    if family not in FAMILIES:
        raise ValueError(
            f"unknown family {family!r} for scheduler {name!r}; "
            f"expected one of {FAMILIES}"
        )
    if key in _REGISTRY and not replace:
        raise ValueError(
            f"scheduler {name!r} is already registered "
            f"(as {_REGISTRY[key].name!r}); pass replace=True to overwrite"
        )
    _REGISTRY[key] = SchedulerEntry(key, factory, family, description, grid)


def unregister(name: str) -> None:
    """Remove a registration (primarily for tests)."""
    _REGISTRY.pop(_key(name), None)


def available() -> typing.List[str]:
    """All registered scheduler names."""
    return sorted(_REGISTRY)


def entries() -> typing.List[SchedulerEntry]:
    """All registrations, grouped paper -> extension -> modern and
    alphabetical within each family."""
    rank = {family: index for index, family in enumerate(FAMILIES)}
    return sorted(
        _REGISTRY.values(), key=lambda e: (rank[e.family], e.name)
    )


def family_of(name: str) -> str:
    """The family tag of a registered scheduler."""
    return _entry(name).family


def grid_schedulers(
    families: typing.Sequence[str] = ("paper", "modern"),
) -> typing.Tuple[str, ...]:
    """The experiment-sweep line-up, resolved from the registry.

    Grid-eligible registrations from the requested families, ordered
    paper reporting order first, then the arena order, then
    alphabetically for any later registrations.
    """
    preferred = {
        name: index
        for index, name in enumerate(PAPER_SCHEDULERS + MODERN_SCHEDULERS)
    }
    rank = {family: index for index, family in enumerate(FAMILIES)}
    chosen = [e for e in entries() if e.grid and e.family in families]
    chosen.sort(
        key=lambda e: (
            rank[e.family],
            preferred.get(e.name, len(preferred)),
            e.name,
        )
    )
    return tuple(e.name for e in chosen)


def _entry(name: str) -> SchedulerEntry:
    entry = _REGISTRY.get(_key(name))
    if entry is None:
        raise KeyError(
            f"unknown scheduler {name!r}; available: {available()}"
        )
    return entry


def _parameterised(
    key: str,
) -> typing.Optional[
    typing.Tuple[SchedulerEntry, typing.Dict[str, typing.Any], str]
]:
    """``NAME(P=v)`` as (entry, its kwarg, the built scheduler's name);
    None when ``key`` is not a form its entry's :class:`Parameter` takes.
    """
    form = _PARAMETERISED.fullmatch(key)
    entry = _REGISTRY.get(form["base"]) if form else None
    parameter = entry.parameter if entry else None
    if parameter is None or parameter.letter != form["letter"]:
        return None
    value = parameter.parse(form["value"])
    shown = f"{value:g}" if isinstance(value, float) else value
    label = f"{entry.name}({parameter.letter}={shown})"
    return entry, {parameter.kwarg: value}, label


def resolve(
    name: str,
) -> typing.Tuple[
    SchedulerEntry, typing.Dict[str, typing.Any], typing.Optional[str]
]:
    """``name`` as (entry, extra kwargs, the built scheduler's name or
    None), importing nothing.  Raises ``KeyError`` for an unknown name
    and ``ValueError`` for a parameter value its entry cannot parse.

    Parameterised forms are accepted for the entries with a
    :class:`Parameter`: ``LOW(K=n)``, ``DGCC(B=n)``, ``CAR(Q=n)`` and
    ``PRED(T=x)``, e.g. ``LOW(K=1)`` or ``DGCC(B=16)``.
    """
    key = _key(name)
    parsed = None if key in _REGISTRY else _parameterised(key)
    return parsed or (_entry(name), {}, None)


def create(
    name: str,
    env: Environment,
    config: MachineConfig,
    control_node: ControlNode,
) -> Scheduler:
    """Instantiate the scheduler :func:`resolve` finds under ``name``;
    the entry's module is imported here, on first use."""
    entry, kwargs, label = resolve(name)
    factory = entry.target
    if isinstance(factory, str):
        module, _, attribute = factory.partition(":")
        factory = getattr(importlib.import_module(module), attribute)
    scheduler = factory(
        env, config, control_node, **{**entry.kwargs, **kwargs}
    )
    if label is not None:
        scheduler.name = label
    return scheduler
