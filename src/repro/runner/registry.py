"""Persistent index of every batch the runner executed.

``results/runs/`` accumulates one manifest file per batch plus (with
telemetry on) one directory per batch holding ``telemetry.jsonl`` and
``status.json``.  The registry is the index over all of that: an
append-only ``registry.jsonl`` in the runs directory with one record
per batch *transition* -- the runner appends a ``running`` entry when a
batch starts and a terminal entry (``complete`` / ``partial`` /
``interrupted`` / ``failed``) when it ends.  The latest record per
batch id wins, so a batch that never wrote its terminal entry (parent
killed hard) is still visible, stuck at ``running``.

Appends are one ``write()`` of one line on an append-mode handle, so
concurrent runners sharing a runs directory never interleave records.

``repro runs`` lists :meth:`RunRegistry.entries`; ``repro watch`` and
``repro explain`` resolve a batch through :meth:`RunRegistry.find`,
which accepts an exact batch id, a unique prefix, or ``latest``.  The
registry stays outside the artifact envelope (:mod:`repro.artifact`):
it is an append-only index whose lines concurrent runners interleave,
not one document.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import typing

PathLike = typing.Union[str, pathlib.Path]

#: file name of the index inside the runs directory
REGISTRY_FILENAME = "registry.jsonl"


def spec_digest(keys: typing.Sequence[str]) -> str:
    """A short content digest over a batch's ordered cache keys."""
    joined = "\n".join(keys).encode()
    return hashlib.sha256(joined).hexdigest()[:16]


class RunRegistry:
    """The append-only batch index under a runs directory."""

    def __init__(self, runs_dir: PathLike) -> None:
        self.runs_dir = pathlib.Path(runs_dir)
        self.path = self.runs_dir / REGISTRY_FILENAME

    def record(self, entry: typing.Mapping[str, typing.Any]) -> None:
        """Append one batch record (must carry a ``batch`` id)."""
        if not entry.get("batch"):
            raise ValueError(f"registry entry needs a 'batch' id: {entry!r}")
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        line = json.dumps(dict(entry), sort_keys=True) + "\n"
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()

    def entries(self) -> typing.List[typing.Dict[str, typing.Any]]:
        """Latest record per batch id, in first-seen (start) order."""
        latest: typing.Dict[str, typing.Dict[str, typing.Any]] = {}
        try:
            with self.path.open("r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # torn tail line of a live writer
                    if isinstance(record, dict) and record.get("batch"):
                        # dict preserves first-seen insertion order
                        latest[record["batch"]] = record
        except OSError:
            return []
        return list(latest.values())

    def find(self, token: str = "latest") -> typing.Dict[str, typing.Any]:
        """Resolve a batch by id, unique prefix/substring, or ``latest``.

        Raises :class:`LookupError` when nothing (or more than one
        batch) matches.
        """
        entries = self.entries()
        if not entries:
            raise LookupError(
                f"no batches registered under {self.runs_dir} "
                f"(missing {REGISTRY_FILENAME})"
            )
        if token in ("latest", "last", ""):
            return entries[-1]
        exact = [e for e in entries if e["batch"] == token]
        if exact:
            return exact[-1]
        matches = [
            e for e in entries
            if e["batch"].startswith(token) or token in e.get("label", "")
        ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            known = ", ".join(e["batch"] for e in entries[-5:])
            raise LookupError(
                f"no batch matches {token!r}; most recent: {known}"
            )
        ambiguous = ", ".join(e["batch"] for e in matches[:5])
        raise LookupError(
            f"batch {token!r} is ambiguous: {ambiguous}"
        )

    def batch_dir(self, batch_id: str) -> pathlib.Path:
        """Where a batch's telemetry artifacts live."""
        return self.runs_dir / batch_id

    def __len__(self) -> int:
        return len(self.entries())
