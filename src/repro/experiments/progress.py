"""Per-job progress/timing lines for the experiment engine.

The engine reports where every job's result came from — ``run`` (a
fresh run), ``disk`` (the on-disk result cache) or ``memo``
(already completed earlier in this process, e.g. shared between
figures) — with wall-clock timing, so a ``chrome-repro run all`` prints
a live account of the dedup/cache wins.
"""

from __future__ import annotations

import sys
from typing import Optional, TextIO

from ..env.jobs import EnvJob


class ProgressReporter:
    """Writes one line per completed job plus a batch summary."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._total = 0
        self._done = 0

    def begin(self, experiment_id: str, total_jobs: int) -> None:
        self._total = total_jobs
        self._done = 0
        if total_jobs:
            self._emit(f"[{experiment_id}] {total_jobs} job(s)")

    def job_done(self, job: EnvJob, source: str, seconds: float) -> None:
        self._done += 1
        if source == "memo":
            # Memo hits are free and frequent (shared suites); they are
            # accounted for in the batch summary instead of per-line.
            return
        width = len(str(self._total))
        self._emit(
            f"  [{self._done:>{width}}/{self._total}] "
            f"{source:<4} {seconds:6.2f}s  {job.label}"
        )

    def batch_summary(
        self, experiment_id: str, executed: int, disk_hits: int, memo_hits: int,
        seconds: float,
    ) -> None:
        if self._total:
            self._emit(
                f"[{experiment_id}] done in {seconds:.1f}s "
                f"({executed} run, {disk_hits} disk, {memo_hits} memo)"
            )

    def _emit(self, line: str) -> None:
        print(line, file=self.stream, flush=True)


class NullProgress(ProgressReporter):
    """Progress sink that prints nothing (library/test default)."""

    def _emit(self, line: str) -> None:  # pragma: no cover - trivially silent
        pass
