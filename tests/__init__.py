"""The test suite.

:func:`child_env` is the environment the tests give a fresh ``python``
child: this process's own, with the package's ``src`` directory first
on ``PYTHONPATH`` so the child imports the ``repro`` under test.
"""

import os
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        path for path in (str(SRC), env.get("PYTHONPATH")) if path
    )
    return env
