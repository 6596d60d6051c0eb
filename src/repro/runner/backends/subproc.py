"""Child entrypoint of the asyncio backend: one task, stdin to stdout.

``python -m repro.runner.backends.subproc`` reads one task dict (JSON)
from stdin, executes it, and writes one reply line to stdout prefixed
with the ASCII record separator so the parent can find it among any
incidental output::

    \\x1e{"ok": true, "result": {...}}
    \\x1e{"ok": false, "error": "...", "traceback": "..."}

A deterministic exception still exits 0 -- the *reply* carries the
failure; only an abrupt death (kill, OOM) leaves no framed line, which
the parent reports as a crashed, retryable outcome.
"""

from __future__ import annotations

import json
import sys
import traceback
import typing

#: stdout line prefix framing the reply (ASCII record separator), so
#: incidental prints from the simulation can never be mistaken for it
RESULT_FRAME = "\x1e"


def main(
    stdin: typing.TextIO = sys.stdin, stdout: typing.TextIO = sys.stdout
) -> int:
    # heavy imports happen inside the try so even an import-time crash
    # produces a framed error reply instead of an unexplained exit
    try:
        from repro.runner.backends.task import run_task

        result = run_task(json.loads(stdin.read()))
        reply: typing.Dict[str, typing.Any] = {
            "ok": True,
            "result": result.to_dict(),
        }
    except Exception as exc:
        reply = {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
    stdout.write(RESULT_FRAME + json.dumps(reply) + "\n")
    stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
