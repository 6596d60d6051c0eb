"""Disk cache of simulation results, keyed by run-spec content hash.

Layout: ``<root>/<key[:2]>/<key>.json`` -- two-level fan-out keeps any
single directory small when sweeps accumulate thousands of entries.
Each entry stores the spec alongside the result so the cache is
self-describing and auditable.

Writes go through :func:`repro.artifact.atomic_write` (a unique
same-directory temp file, then a rename) so a killed run never leaves a
truncated entry behind and concurrent runners (processes *or* threads)
sharing a cache directory can race on the same key without a reader
ever observing a torn JSON entry -- the last rename wins, and every
intermediate state is a complete file.  Entries stay outside the
artifact envelope: they are content-addressed, with
``CACHE_FORMAT_VERSION`` in the key.
"""

from __future__ import annotations

import json
import pathlib
import time
import typing

from repro.artifact import atomic_write
from repro.runner.spec import CACHE_FORMAT_VERSION, RunSpec
from repro.sim.metrics import SimulationResult


class ResultCache:
    """Content-addressed store of :class:`SimulationResult`s."""

    def __init__(self, root: typing.Union[str, pathlib.Path]) -> None:
        self.root = pathlib.Path(root)

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, spec: RunSpec) -> typing.Optional[SimulationResult]:
        """The cached result for ``spec``, or None on a miss."""
        path = self.path_for(spec.cache_key())
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("version") != CACHE_FORMAT_VERSION:
            return None
        try:
            return SimulationResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError):
            return None  # corrupt or written by an incompatible build

    def put(self, spec: RunSpec, result: SimulationResult) -> pathlib.Path:
        """Store ``result`` under ``spec``'s key; returns the entry path."""
        key = spec.cache_key()
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "key": key,
            "spec": spec.to_dict(),
            "result": result.to_dict(),
        }
        return atomic_write(
            self.path_for(key), json.dumps(payload, sort_keys=True, indent=1)
        )

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    # -- maintenance (long-lived caches grow without bound otherwise) -------

    def _entries(self) -> typing.Iterator[pathlib.Path]:
        if self.root.exists():
            yield from self.root.glob("*/*.json")

    def stats(self) -> typing.Dict[str, typing.Any]:
        """Size and age summary of the cache, for ``repro cache``.

        ``oldest_age_s`` / ``newest_age_s`` are relative to now, from
        entry mtimes (an entry's mtime is when its run finished, since
        writes replace the entry whole).
        """
        entries = 0
        total_bytes = 0
        oldest: typing.Optional[float] = None
        newest: typing.Optional[float] = None
        for path in self._entries():
            try:
                status = path.stat()
            except OSError:
                continue  # pruned concurrently
            entries += 1
            total_bytes += status.st_size
            mtime = status.st_mtime
            oldest = mtime if oldest is None else min(oldest, mtime)
            newest = mtime if newest is None else max(newest, mtime)
        now = time.time()
        return {
            "root": str(self.root),
            "entries": entries,
            "total_bytes": total_bytes,
            "oldest_age_s": (
                round(now - oldest, 1) if oldest is not None else None
            ),
            "newest_age_s": (
                round(now - newest, 1) if newest is not None else None
            ),
        }

    def gc(
        self,
        max_age_s: typing.Optional[float] = None,
        max_entries: typing.Optional[int] = None,
        dry_run: bool = False,
    ) -> typing.Dict[str, int]:
        """Prune entries by age and/or count; returns what happened.

        ``max_age_s`` removes entries older than that many seconds;
        ``max_entries`` then removes oldest-first until at most that
        many remain.  ``dry_run`` counts without deleting.  Concurrent
        runners are safe: a pruned entry is merely a future cache miss,
        and deletion races collapse to whoever unlinks first.
        """
        dated: typing.List[typing.Tuple[float, pathlib.Path]] = []
        for path in self._entries():
            try:
                dated.append((path.stat().st_mtime, path))
            except OSError:
                continue
        dated.sort()  # oldest first
        now = time.time()
        doomed: typing.List[pathlib.Path] = []
        survivors: typing.List[typing.Tuple[float, pathlib.Path]] = []
        for mtime, path in dated:
            if max_age_s is not None and now - mtime > max_age_s:
                doomed.append(path)
            else:
                survivors.append((mtime, path))
        if max_entries is not None and len(survivors) > max_entries:
            overflow = len(survivors) - max_entries
            doomed.extend(path for _, path in survivors[:overflow])
            survivors = survivors[overflow:]
        removed = 0
        if not dry_run:
            for path in doomed:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
                try:
                    path.parent.rmdir()  # drop now-empty fan-out dirs
                except OSError:
                    pass
        return {
            "examined": len(dated),
            "pruned": len(doomed) if dry_run else removed,
            "kept": len(survivors),
            "dry_run": int(dry_run),
        }
