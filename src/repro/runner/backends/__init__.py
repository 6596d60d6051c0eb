"""Executor backends: where a batch's runs execute.

The :class:`~repro.runner.runner.ParallelRunner` decides *what* to run;
a backend registered here decides *where*.  ``repro backends`` lists
this registry, ``repro sweep --backend NAME`` selects from it, and the
conformance battery in ``tests/runner/test_backends.py`` drives every
entry through the same scenarios -- a new backend is a subclass of
:class:`ExecutorBackend`, one :func:`register_backend` call naming it
by import path, and a green conformance run.  The registry holds paths,
not classes: listing backends or reading their flags imports none of
them, and :func:`create_backend` imports only the one it builds.
"""

from __future__ import annotations

import dataclasses
import importlib
import typing

from repro._facade import lazy_exports
from repro.runner.backends.base import BackendCapabilities, ExecutorBackend

#: the backend classes and shared-dir helpers resolve on first access,
#: so consulting the registry never loads asyncio, multiprocessing or
#: the spool machinery
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AsyncioSubprocessBackend": "repro.runner.backends.asyncio_subprocess",
    "BackendCapabilities": "repro.runner.backends.base",
    "ExecutorBackend": "repro.runner.backends.base",
    "JobOutcome": "repro.runner.backends.base",
    "LocalPoolBackend": "repro.runner.backends.local",
    "SerialBackend": "repro.runner.backends.serial",
    "SharedDirBackend": "repro.runner.backends.shared_dir",
    "WorkerTaskError": "repro.runner.backends.base",
    "janitor_sweep": "repro.runner.backends.shared_dir",
    "worker_pool_loop": "repro.runner.backends.shared_dir",
})
__all__ += [
    "BackendInfo",
    "backend_names",
    "create_backend",
    "get_backend_info",
    "register_backend",
]


@dataclasses.dataclass(frozen=True)
class BackendInfo:
    """One registry entry: class path, one-line summary, static flags.

    ``flags`` describes the backend *kind* (instance capabilities add
    sizing): what ``repro backends`` prints without having to build an
    instance, which the shared-dir backend could not even do without a
    spool directory.  ``path`` names the class as ``"module.Class"``;
    only :meth:`load` imports it.
    """

    path: str
    summary: str
    flags: BackendCapabilities

    def load(self) -> typing.Type[ExecutorBackend]:
        """Import and return the backend class."""
        module, _, name = self.path.rpartition(".")
        return getattr(importlib.import_module(module), name)


_REGISTRY: typing.Dict[str, BackendInfo] = {}


def register_backend(
    name: str, path: str, summary: str, flags: BackendCapabilities
) -> None:
    """Add the backend class at ``path`` under ``name`` (last write wins)."""
    _REGISTRY[name] = BackendInfo(path=path, summary=summary, flags=flags)


def backend_names() -> typing.List[str]:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def get_backend_info(name: str) -> BackendInfo:
    """The registry entry for ``name`` (KeyError lists what exists)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; registered: "
            f"{', '.join(backend_names())}"
        ) from None


def create_backend(
    name: str, workers: int = 1, **options: typing.Any
) -> ExecutorBackend:
    """Instantiate a registered backend sized to ``workers``."""
    return get_backend_info(name).load()(workers=workers, **options)


register_backend(
    "serial",
    "repro.runner.backends.serial.SerialBackend",
    "in-process, one run at a time (the conformance reference)",
    BackendCapabilities(inline=True, max_workers=1),
)
register_backend(
    "local",
    "repro.runner.backends.local.LocalPoolBackend",
    "local process pool (the default); a stall kill breaks the pool",
    BackendCapabilities(supports_kill=True),
)
register_backend(
    "asyncio",
    "repro.runner.backends.asyncio_subprocess.AsyncioSubprocessBackend",
    "one supervised subprocess per run; per-run kill, no pool teardown",
    BackendCapabilities(supports_kill=True, isolates_runs=True),
)
register_backend(
    "shared-dir",
    "repro.runner.backends.shared_dir.SharedDirBackend",
    "spool-directory fabric; any `repro worker-pool` host joins in",
    BackendCapabilities(isolates_runs=True, distributed=True),
)
