"""Executor backends: where a batch's runs execute.

The :class:`~repro.runner.runner.ParallelRunner` decides *what* to run;
a backend listed here decides *where*.  ``repro backends`` prints this
table, ``repro sweep --backend NAME`` selects from it, and the
conformance battery in ``tests/runner/test_backends.py`` drives every
entry through the same scenarios.  The table holds import paths, not
classes: listing backends imports none of them, and
:func:`create_backend` imports only the one it builds.
"""

from __future__ import annotations

import importlib
import typing

from repro._facade import lazy_exports
from repro.runner.backends.base import ExecutorBackend

#: the backend classes resolve on first access, so consulting the table
#: never loads asyncio or multiprocessing
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AsyncioSubprocessBackend": "repro.runner.backends.asyncio_subprocess",
    "ExecutorBackend": "repro.runner.backends.base",
    "JobOutcome": "repro.runner.backends.base",
    "LocalPoolBackend": "repro.runner.backends.local",
    "SerialBackend": "repro.runner.backends.serial",
    "WorkerTaskError": "repro.runner.backends.base",
})
__all__ += [
    "BackendInfo",
    "backend_names",
    "create_backend",
    "get_backend_info",
]


class BackendInfo(typing.NamedTuple):
    """One table entry: the class as ``"module.Class"``, how its runs
    are isolated from each other, and a one-line summary."""

    path: str
    isolation: str
    summary: str

    def load(self) -> typing.Type[ExecutorBackend]:
        """Import and return the backend class."""
        module, _, name = self.path.rpartition(".")
        return getattr(importlib.import_module(module), name)


_BACKENDS: typing.Dict[str, BackendInfo] = {
    "serial": BackendInfo(
        "repro.runner.backends.serial.SerialBackend",
        "in-process",
        "one run at a time in the parent (the conformance reference)",
    ),
    "local": BackendInfo(
        "repro.runner.backends.local.LocalPoolBackend",
        "shared pool",
        "local process pool (the default); a stall kill breaks the pool",
    ),
    "asyncio": BackendInfo(
        "repro.runner.backends.asyncio_subprocess.AsyncioSubprocessBackend",
        "per run",
        "one supervised subprocess per run; a stall kill stops only it",
    ),
}


def backend_names() -> typing.List[str]:
    """Backend names, sorted."""
    return sorted(_BACKENDS)


def get_backend_info(name: str) -> BackendInfo:
    """The table entry for ``name`` (KeyError lists what exists)."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; registered: "
            f"{', '.join(backend_names())}"
        ) from None


def create_backend(name: str, workers: int = 1) -> ExecutorBackend:
    """Instantiate the backend ``name`` sized to ``workers``."""
    return get_backend_info(name).load()(workers=workers)
