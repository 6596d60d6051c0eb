"""Declarative run specifications with content-addressed cache keys.

A :class:`RunSpec` pins down *everything* a simulation run depends on --
scheduler, workload, machine configuration, seed and window -- as plain
data.  Because the simulator is deterministic given those inputs, the
spec's content hash is a sound cache key: two specs with equal hashes
produce byte-identical :class:`~repro.sim.metrics.SimulationResult`s.

Workloads are described by :class:`WorkloadSpec` (kind + rate + params)
rather than by the factory callables the single-run API takes, so specs
can be pickled to worker processes and hashed for the cache.  The
built-in kinds cover the paper's experiments; :func:`register_workload`
adds new ones.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing

from repro.machine.config import MachineConfig
from repro.txn.workload import (
    Workload,
    experiment1_workload,
    experiment2_workload,
    experiment3_workload,
    mixed_workload,
)

#: bump when run semantics change so stale cache entries never resurface
#: (v2: specs carry the ``trace`` flag, so traced and untraced runs hash
#: to different keys and never collide in the cache; v3: specs carry the
#: ``timeseries`` flag and results the ``p95_exact`` field; v4: results
#: carry the ``restart_wasted_ms`` field)
CACHE_FORMAT_VERSION = 4

WorkloadBuilder = typing.Callable[..., Workload]

_WORKLOAD_BUILDERS: typing.Dict[str, WorkloadBuilder] = {
    "exp1": experiment1_workload,
    "exp2": experiment2_workload,
    "exp3": experiment3_workload,
    "mixed": mixed_workload,
}


def register_workload(kind: str, builder: WorkloadBuilder) -> None:
    """Register ``builder(rate_tps, **params)`` under ``kind``.

    Re-registering a built-in kind is rejected: cache keys embed the
    kind name, so silently changing its meaning would poison the cache.
    """
    if kind in _WORKLOAD_BUILDERS:
        raise ValueError(f"workload kind {kind!r} is already registered")
    _WORKLOAD_BUILDERS[kind] = builder


def workload_kinds() -> typing.Tuple[str, ...]:
    """The registered workload kind names."""
    return tuple(sorted(_WORKLOAD_BUILDERS))


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """A workload as data: registry kind, arrival rate and parameters.

    ``params`` is a sorted tuple of ``(name, value)`` pairs so the spec
    is hashable and its JSON form is canonical.
    """

    kind: str
    rate_tps: float
    params: typing.Tuple[typing.Tuple[str, typing.Any], ...] = ()

    @classmethod
    def make(
        cls, kind: str, rate_tps: float, **params: typing.Any
    ) -> "WorkloadSpec":
        if kind not in _WORKLOAD_BUILDERS:
            raise ValueError(
                f"unknown workload kind {kind!r}; "
                f"registered: {workload_kinds()}"
            )
        return cls(kind, float(rate_tps), tuple(sorted(params.items())))

    def at_rate(self, rate_tps: float) -> "WorkloadSpec":
        """The same workload at a different arrival rate."""
        return dataclasses.replace(self, rate_tps=float(rate_tps))

    def build(self) -> Workload:
        """Materialise the workload (in whichever process runs it)."""
        builder = _WORKLOAD_BUILDERS.get(self.kind)
        if builder is None:
            raise ValueError(f"unknown workload kind {self.kind!r}")
        return builder(self.rate_tps, **dict(self.params))

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        return {
            "kind": self.kind,
            "rate_tps": self.rate_tps,
            "params": {name: value for name, value in self.params},
        }

    @classmethod
    def from_dict(
        cls, payload: typing.Mapping[str, typing.Any]
    ) -> "WorkloadSpec":
        return cls.make(
            payload["kind"], payload["rate_tps"], **payload.get("params", {})
        )


def paper_workload(
    kind: str, rate_tps: float, num_files: int = 16, sigma: float = 1.0
) -> WorkloadSpec:
    """One of the paper's experiment workloads: ``exp1`` over
    ``num_files`` files, ``exp2`` (fixed files), or ``exp3`` with
    declaration-error ``sigma``."""
    if kind == "exp2":
        return WorkloadSpec.make("exp2", rate_tps)
    if kind == "exp3":
        return WorkloadSpec.make(
            "exp3", rate_tps, sigma=sigma, num_files=num_files
        )
    return WorkloadSpec.make("exp1", rate_tps, num_files=num_files)


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Everything one simulation run depends on, as hashable plain data."""

    scheduler: str
    workload: WorkloadSpec
    config: MachineConfig = MachineConfig()
    seed: int = 0
    duration_ms: float = 2_000_000.0
    warmup_ms: float = 0.0
    #: capture a per-run trace artifact (JSONL via MemoryRecorder);
    #: part of the cache key -- tracing never changes results, but the
    #: artifact's existence is itself an output of the run
    trace: bool = False
    #: capture a per-run time-series artifact (sampled trajectories via
    #: :class:`~repro.obs.timeseries.TimeSeriesSampler`); same contract
    #: as ``trace`` -- observation only, but part of the cache key
    timeseries: bool = False

    def to_dict(self) -> typing.Dict[str, typing.Any]:
        return {
            "scheduler": self.scheduler,
            "workload": self.workload.to_dict(),
            "config": dataclasses.asdict(self.config),
            "seed": self.seed,
            "duration_ms": self.duration_ms,
            "warmup_ms": self.warmup_ms,
            "trace": self.trace,
            "timeseries": self.timeseries,
        }

    @classmethod
    def from_dict(cls, payload: typing.Mapping[str, typing.Any]) -> "RunSpec":
        return cls(
            scheduler=payload["scheduler"],
            workload=WorkloadSpec.from_dict(payload["workload"]),
            config=MachineConfig(**payload["config"]),
            seed=int(payload["seed"]),
            duration_ms=float(payload["duration_ms"]),
            warmup_ms=float(payload["warmup_ms"]),
            trace=bool(payload.get("trace", False)),
            timeseries=bool(payload.get("timeseries", False)),
        )

    def cache_key(self) -> str:
        """Content hash over the canonical JSON form of this spec."""
        payload = {"version": CACHE_FORMAT_VERSION, "spec": self.to_dict()}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def describe(self) -> str:
        """A one-line human label for progress output."""
        extras = []
        if self.config.dd != 1:
            extras.append(f"dd={self.config.dd}")
        if self.config.mpl is not None:
            extras.append(f"mpl={self.config.mpl}")
        if self.trace:
            extras.append("trace")
        if self.timeseries:
            extras.append("ts")
        suffix = f" [{' '.join(extras)}]" if extras else ""
        return (
            f"{self.scheduler} on {self.workload.kind}"
            f"@{self.workload.rate_tps:g}tps{suffix}"
        )
