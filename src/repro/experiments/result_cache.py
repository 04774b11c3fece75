"""On-disk memoization of completed jobs.

Results are keyed by :attr:`~repro.env.jobs.EnvJob.fingerprint` — a
content hash of the full job spec plus the adapter's ``code_version`` —
so a warm cache makes re-runs and cross-figure overlaps free while any
change to the spec (or a domain-semantics version bump) transparently
invalidates the entry.  Corrupt or unreadable entries are treated as misses — the cache
can never change results, only skip work.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Optional

from ..env.jobs import EnvJob


class ResultCache:
    """A directory of pickled job results, one file per job."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise ValueError(
                f"cache dir {str(self.root)!r} exists and is not a directory"
            ) from None

    def path(self, job: EnvJob) -> Path:
        return self.root / f"{job.fingerprint}.pkl"

    def get(self, job: EnvJob) -> Optional[Any]:
        path = self.path(job)
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except FileNotFoundError:
            return None
        except Exception:
            # A truncated/corrupt entry is a miss, never an error.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, job: EnvJob, result: Any) -> None:
        path = self.path(job)
        # Atomic publish so concurrent runs sharing a cache dir never
        # observe a half-written entry.
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def prune(self, max_entries: int) -> int:
        """Trim the cache to at most ``max_entries`` entries.

        Oldest entries (by modification time — a disk hit does not
        refresh it, so this is insertion order for practical purposes)
        are deleted first; mtime ties break on filename, so the
        eviction order is fully deterministic even on filesystems with
        coarse timestamps (entries written within one tick).  Returns
        the number of entries removed; entries deleted concurrently by
        another process are skipped, never raised.
        """
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        entries = []
        for path in self.root.glob("*.pkl"):
            try:
                entries.append((path.stat().st_mtime, path.name, path))
            except OSError:
                continue  # vanished mid-scan
        removed = 0
        excess = len(entries) - max_entries
        if excess <= 0:
            return 0
        for _, _, path in sorted(entries)[:excess]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.pkl"))
