"""Versioned artifacts: one envelope, one atomic writer, one loader.

Every file a batch leaves for a reader is one *family*: ARENA and
EXPLAIN reports, SERIES, STATUS snapshots and run MANIFESTs are JSON
documents; TRACE and TELEMETRY are JSONL streams.  A family is declared
next to its payload code as a :class:`Family` -- a name, a schema
version and a payload validator -- and every family shares one envelope::

    {"family": "arena", "schema_version": 1,
     "created": "2026-10-17T17:59:32Z", "git_sha": "314c...",
     "payload": {...}}

- :func:`write` wraps a payload in the envelope and writes it through
  :func:`atomic_write`; :func:`load` checks family and version, then
  runs the family's validator.  A file without the envelope is refused.
- A stream's first line is the envelope plus the stream's header
  ``kind`` (``trace.meta`` / ``batch.meta``) and clock field; every
  later line is a record checked against the family's kind table
  (:func:`check_record`).  :func:`check_stream` checks a whole file;
  for a monotone family (TRACE, on the simulated clock) it also checks
  that the clock never goes backwards.

:func:`atomic_write` writes through a unique same-directory temp file
and ``os.replace``: a reader never sees a torn file, and an interrupted
write leaves nothing at the final path.  Result-cache entries use it
too, but stay outside the envelope: they are content-addressed, with
the cache format version in their key.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import time
import typing

PathLike = typing.Union[str, pathlib.Path]

#: the fields of every envelope (and of every stream's header record)
ENVELOPE_FIELDS = ("family", "schema_version", "created", "git_sha", "payload")


class ArtifactError(ValueError):
    """A file is not a valid artifact of the family it was read as."""


class Family(typing.NamedTuple):
    """One artifact family.  ``validate`` raises ``ValueError`` on a bad
    payload; stream families also name their header ``kind``, their
    clock field, the fields each record kind must carry, and whether
    the clock may never go backwards."""

    name: str
    schema_version: int
    validate: typing.Callable[[typing.Any], typing.Any]
    header: str = ""
    clock: str = ""
    kinds: typing.Mapping[str, typing.Tuple[str, ...]] = {}
    monotone: bool = False


_GIT_SHA: typing.List[typing.Optional[str]] = []


def git_sha() -> typing.Optional[str]:
    """The checkout's ``HEAD`` (None outside a git work tree), asked of
    git at most once per process."""
    if not _GIT_SHA:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=5, check=False,
            )
            sha = out.stdout.strip() if out.returncode == 0 else ""
        except (OSError, subprocess.SubprocessError):
            sha = ""
        _GIT_SHA.append(sha or None)
    return _GIT_SHA[0]


def atomic_write(
    path: PathLike, chunks: typing.Union[str, typing.Iterable[str]]
) -> pathlib.Path:
    """Write ``chunks`` (a string, or strings in order) to ``path``.

    The text goes to a temp file beside ``path`` that replaces it only
    once complete, so concurrent writers never interleave and an
    exception while producing the chunks leaves ``path`` untouched.
    The temp file is created exclusively under a random name (unique
    per writer, thread or process) with the mode ``open()`` would give.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    while True:
        tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            if isinstance(chunks, str):
                handle.write(chunks)
            else:
                handle.writelines(chunks)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    os.replace(tmp, path)
    return path


def require(
    payload: typing.Mapping[str, typing.Any],
    fields: typing.Iterable[str],
    what: str,
) -> None:
    """Raise ``ValueError`` naming every one of ``fields`` that the
    ``what`` payload lacks (a helper for payload validators)."""
    missing = [field for field in fields if field not in payload]
    if missing:
        raise ValueError(f"{what} is missing {missing}")


def envelope(family: Family, payload: typing.Any) -> typing.Dict[str, typing.Any]:
    """Validate ``payload`` and wrap it, stamped now (UTC) with this
    checkout's :func:`git_sha`."""
    family.validate(payload)
    return {
        "family": family.name,
        "schema_version": family.schema_version,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(),
        "payload": payload,
    }


def write(
    path: PathLike,
    family: Family,
    payload: typing.Any,
    indent: typing.Optional[int] = 1,
) -> typing.Dict[str, typing.Any]:
    """Write ``payload`` as a ``family`` document; returns the envelope."""
    document = envelope(family, payload)
    atomic_write(
        path, json.dumps(document, indent=indent, sort_keys=True) + "\n"
    )
    return document


def check_envelope(
    document: typing.Any, family: Family, where: str
) -> None:
    """Raise :class:`ArtifactError` unless ``document`` is a current
    ``family`` envelope with a payload its validator accepts."""
    if not isinstance(document, dict) or any(
        field not in document for field in ENVELOPE_FIELDS
    ):
        raise ArtifactError(
            f"{where}: no artifact envelope (expected family {family.name!r})"
        )
    if document["family"] != family.name:
        raise ArtifactError(
            f"{where}: family {document['family']!r}, "
            f"expected {family.name!r}"
        )
    if document["schema_version"] != family.schema_version:
        raise ArtifactError(
            f"{where}: {family.name} schema_version "
            f"{document['schema_version']!r}; this build reads "
            f"{family.schema_version}"
        )
    try:
        family.validate(document["payload"])
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ArtifactError(
            f"{where}: invalid {family.name} payload: {exc}"
        ) from exc


def load(path: PathLike, family: Family) -> typing.Dict[str, typing.Any]:
    """Read a ``family`` document and check it; returns the envelope."""
    try:
        document = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ArtifactError(
            f"{path}: not JSON (expected family {family.name!r}): {exc}"
        ) from exc
    check_envelope(document, family, str(path))
    return document


def check_record(
    family: Family, record: typing.Mapping[str, typing.Any]
) -> None:
    """Raise :class:`ArtifactError` unless ``record`` is a well-formed
    line of a ``family`` stream: a known kind, a non-negative numeric
    clock and every field its kind requires."""
    kind = record.get("kind")
    if not isinstance(kind, str):
        raise ArtifactError(f"record has no string 'kind': {record!r}")
    if kind not in family.kinds:
        raise ArtifactError(f"unknown {family.name} kind {kind!r}")
    stamp = record.get(family.clock)
    if not isinstance(stamp, (int, float)) or isinstance(stamp, bool):
        raise ArtifactError(
            f"{kind}: {family.clock!r} must be a number, got {stamp!r}"
        )
    if stamp < 0:
        raise ArtifactError(f"{kind}: negative timestamp {stamp}")
    missing = [f for f in family.kinds[kind] if f not in record]
    if missing:
        raise ArtifactError(f"{kind}: missing required fields {missing}")


def check_stream(path: PathLike, family: Family) -> int:
    """Check a whole ``family`` JSONL stream; returns its record count
    (the header included)."""
    path = pathlib.Path(path)
    count = 0
    last = 0.0
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ArtifactError(f"{where}: not valid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise ArtifactError(
                    f"{where}: expected an object, "
                    f"got {type(record).__name__}"
                )
            if count == 0:
                if record.get("kind") != family.header:
                    raise ArtifactError(
                        f"{where}: a {family.name} stream starts with a "
                        f"{family.header} record, got {record.get('kind')!r}"
                    )
                check_envelope(record, family, where)
            try:
                check_record(family, record)
            except ArtifactError as exc:
                raise ArtifactError(f"{where}: {exc}") from exc
            stamp = record[family.clock]
            if family.monotone and stamp < last:
                raise ArtifactError(
                    f"{where}: timestamp went backwards ({stamp} < {last})"
                )
            last = stamp
            count += 1
    if count == 0:
        raise ArtifactError(
            f"{path}: empty {family.name} stream (no {family.header} header)"
        )
    return count
