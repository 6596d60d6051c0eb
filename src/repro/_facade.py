"""Lazy package facades (PEP 562): exports resolve on first access.

A package ``__init__`` that re-exports its submodules' names would, if
it imported them eagerly, make every ``import repro.x.y`` pay for the
whole package.  Instead each facade declares one name -> module table
and installs the ``__getattr__``/``__dir__`` pair returned by
:func:`lazy_exports`; ``repro.X``, ``from repro import X`` and
``from repro import *`` behave exactly as with eager imports, but only
the modules a caller actually touches are ever loaded.
"""

from __future__ import annotations

import importlib
import sys
import typing


def lazy_exports(
    package: str, exports: typing.Mapping[str, str]
) -> typing.Tuple[
    typing.Callable[[str], typing.Any],
    typing.Callable[[], typing.List[str]],
    typing.List[str],
]:
    """``(__getattr__, __dir__, __all__)`` for the facade ``package``.

    ``exports`` maps each public name to the module that defines it; a
    name mapped to ``"<package>.<name>"`` is that submodule itself.  The
    first access imports the module and stores the value in the package
    namespace, so every later access is a plain attribute lookup.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> typing.Any:
        try:
            module = importlib.import_module(exports[name])
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = (
            module
            if module.__name__ == f"{package}.{name}"
            else getattr(module, name)
        )
        namespace[name] = value
        return value

    def __dir__() -> typing.List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__, sorted(exports)
