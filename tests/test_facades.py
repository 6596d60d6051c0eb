"""Lazy package facades: the public names behave as eager re-exports.

Each facade resolves its exports on first attribute access (PEP 562);
these tests pin that the laziness is invisible: every name in
``__all__`` is the very object its defining module holds, star imports
and ``dir()`` see every name, and an unknown name fails like any missing
module attribute.
"""

import importlib
import json
import subprocess
import sys

import pytest

from tests import child_env

FACADES = (
    "repro",
    "repro.core",
    "repro.experiments",
    "repro.obs",
    "repro.runner",
    "repro.schedulers",
    "repro.schedulers.modern",
    "repro.sim",
)

_MISSING = object()


def holders(name: str, facade: str) -> list:
    """Every other loaded ``repro`` module with a global ``name``."""
    return [
        module
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro.")
        and module_name != facade
        and vars(module).get(name, _MISSING) is not _MISSING
    ]


@pytest.mark.parametrize("facade", FACADES)
def test_every_export_is_its_defining_modules_object(facade):
    package = importlib.import_module(facade)
    for name in package.__all__:
        value = getattr(package, name)
        if name.startswith("__") or getattr(value, "__module__", "") == facade:
            continue  # package metadata, or defined by the facade itself
        if isinstance(value, type(sys)):
            assert sys.modules[value.__name__] is value
            continue
        found = holders(name, facade)
        assert found, f"{facade}.{name} is defined by no loaded module"
        for module in found:
            assert vars(module)[name] is value, (
                f"{facade}.{name} differs from {module.__name__}.{name}"
            )


@pytest.mark.parametrize("facade", FACADES)
def test_star_import_and_dir_see_every_export(facade):
    package = importlib.import_module(facade)
    namespace: dict = {}
    exec(f"from {facade} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("facade", FACADES)
def test_unknown_name_raises_attribute_error_naming_the_module(facade):
    package = importlib.import_module(facade)
    with pytest.raises(AttributeError, match=f"'{facade}'.*'no_such_name'"):
        package.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {facade} import no_such_name", {})


def fresh_interpreter(script: str) -> object:
    """Run ``script`` in a new interpreter; its last stdout line is JSON."""
    out = subprocess.run(
        [sys.executable, "-c", script], env=child_env(),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_registry_alone_lists_the_modern_schedulers():
    names = fresh_interpreter(
        "import json\n"
        "from repro.core.registry import available\n"
        "print(json.dumps(available()))\n"
    )
    assert {"DGCC", "CAR", "PRED"} <= set(names)


def test_facade_import_loads_no_sibling():
    loaded = fresh_interpreter(
        "import json, sys\n"
        "import repro, repro.core, repro.obs, repro.sim, repro.runner\n"
        "import repro.experiments, repro.schedulers, repro.schedulers.modern\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith('repro'))))\n"
    )
    assert set(loaded) == {
        "repro", "repro._facade", "repro.core", "repro.experiments",
        "repro.obs", "repro.runner", "repro.schedulers",
        "repro.schedulers.modern", "repro.sim",
    }
