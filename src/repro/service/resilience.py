"""Crash-safe durability, supervision budgets, and admission control.

Aggregate state is the product of a PPDM deployment: the accumulated
noise-expanded counts cannot be re-derived once lost, so durability and
graceful degradation are correctness concerns, not ops niceties.  This
module holds the serving stack's resilience primitives:

* **Durability** — :func:`persist_with_rotation` writes snapshots
  atomically (temp file + fsync + rename, integrity digest embedded by
  :mod:`repro.serialize`) while keeping the previous generation as
  ``<name>.1``; :func:`recover_service` walks the generations newest
  first at startup, rejecting corrupt snapshots loudly and settling on
  the newest one that verifies.  The periodic auto-snapshot behind
  ``--snapshot-interval`` and the exit-time write belong to
  :class:`~repro.service.httpd.ServiceHTTPServer`, which owns the
  state they persist.
* **Overload and drain** — :class:`AdmissionController` counts
  in-flight ingest work, bounds it (the HTTP front end turns a rejected
  acquire into ``429`` + ``Retry-After``) and closes for a drain, which
  waits for every admitted body.
* **Supervision** — :class:`RestartBudget` is the sliding-window
  restart allowance with exponential backoff that
  :class:`~repro.service.cluster.ClusterSupervisor` spends when it
  respawns a dead worker.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.exceptions import ReproError, SnapshotError, ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.service import AggregationService

__all__ = [
    "AdmissionController",
    "RestartBudget",
    "persist_with_rotation",
    "previous_snapshot_path",
    "recover_service",
]

logger = logging.getLogger("repro.service.resilience")


class AdmissionController:
    """In-flight gauge guarding the ingest path, bounded and closable.

    ``try_acquire`` admits up to ``max_inflight`` concurrent units of
    work (any number when ``None``); beyond that it refuses and the
    caller should shed load (the HTTP front end replies ``429`` with
    ``Retry-After: retry_after``).  :meth:`close` refuses every later
    acquire and waits until the admitted work has been released, which
    is how a draining server knows its last ingest body has landed.
    Thread-safe.

    >>> gauge = AdmissionController(max_inflight=1, retry_after=2.0)
    >>> gauge.try_acquire(), gauge.try_acquire()
    (True, False)
    >>> gauge.release(); gauge.try_acquire()
    True
    >>> gauge.release(); gauge.close(); gauge.try_acquire(), gauge.closed
    (False, True)
    """

    def __init__(
        self, max_inflight: int | None, retry_after: float = 1.0
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValidationError("max_inflight must be >= 1")
        if retry_after < 0:
            raise ValidationError("retry_after must be >= 0")
        self.max_inflight = None if max_inflight is None else int(max_inflight)
        self.retry_after = float(retry_after)
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._closed = False
        self._inflight = 0
        self._admitted = 0
        self._rejected = 0

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def closed(self) -> bool:
        """Has :meth:`close` stopped admitting work?"""
        with self._lock:
            return self._closed

    def try_acquire(self) -> bool:
        with self._lock:
            if self._closed:
                return False
            if self.max_inflight is not None and self._inflight >= self.max_inflight:
                self._rejected += 1
                return False
            self._inflight += 1
            self._admitted += 1
            return True

    def release(self) -> None:
        with self._lock:
            if self._inflight <= 0:
                raise ValidationError("release() without a matching acquire")
            self._inflight -= 1
            if not self._inflight:
                self._idle.notify_all()

    def close(self) -> None:
        """Admit nothing more; return once no admitted work is in flight."""
        with self._lock:
            self._closed = True
            self._idle.wait_for(lambda: not self._inflight)

    def stats(self) -> dict:
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "inflight": self._inflight,
                "admitted": self._admitted,
                "rejected": self._rejected,
            }


class RestartBudget:
    """Sliding-window restart allowance with exponential backoff.

    A supervisor may spend one restart per call to :meth:`spend`; the
    call returns the backoff delay to wait before the respawn, or
    ``None`` when ``max_restarts`` have already been spent inside the
    trailing ``window`` seconds (the slot then stays down — restarting
    a crash-looping worker forever just hides the crash).

    >>> budget = RestartBudget(max_restarts=2, window=60.0, backoff=0.5,
    ...                        clock=lambda: 10.0)
    >>> budget.spend(), budget.spend(), budget.spend()
    (0.5, 1.0, None)
    """

    def __init__(
        self,
        max_restarts: int = 5,
        window: float = 60.0,
        backoff: float = 0.25,
        max_backoff: float = 8.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_restarts < 0:
            raise ValidationError("max_restarts must be >= 0")
        if window <= 0:
            raise ValidationError("window must be > 0")
        self.max_restarts = int(max_restarts)
        self.window = float(window)
        self.backoff = float(backoff)
        self.max_backoff = float(max_backoff)
        self._clock = clock
        self._lock = threading.Lock()
        self._spent: List[float] = []

    def spend(self) -> Optional[float]:
        """Spend one restart; return its backoff delay or ``None``."""
        with self._lock:
            now = self._clock()
            self._spent = [t for t in self._spent if now - t < self.window]
            if len(self._spent) >= self.max_restarts:
                return None
            delay = min(
                self.backoff * (2.0 ** len(self._spent)), self.max_backoff
            )
            self._spent.append(now)
            return delay

    @property
    def spent(self) -> int:
        """Restarts spent inside the current window."""
        with self._lock:
            now = self._clock()
            return sum(1 for t in self._spent if now - t < self.window)


# ----------------------------------------------------------------------
# durability


def previous_snapshot_path(path) -> Path:
    """The previous-generation sibling of a snapshot path (``name.1``)."""
    path = Path(path)
    return path.with_name(path.name + ".1")


def persist_with_rotation(service: "AggregationService", path) -> Path:
    """Atomically snapshot ``service`` to ``path``, keeping one generation.

    The current snapshot (when one exists) is first rotated to
    ``<name>.1``; the new document then lands via the fsynced
    temp-file-plus-rename in :func:`repro.serialize.save`.  If the
    write fails, the rotation is undone so the previous good snapshot
    survives under its original name, and the failure surfaces as
    :class:`~repro.exceptions.SnapshotError`.  A missing parent
    directory is created rather than failing every auto-snapshot of a
    freshly configured ``--snapshot-dir``.
    """
    path = Path(path)
    previous = previous_snapshot_path(path)
    rotated = False
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            os.replace(path, previous)
            rotated = True
        service.save(path)
    except OSError as exc:
        if rotated:  # put the good generation back where recovery finds it
            os.replace(previous, path)
        raise SnapshotError(
            f"snapshot write to {str(path)!r} failed: {exc}"
        ) from exc
    return path


def recover_service(path) -> Tuple["AggregationService", Path]:
    """Load the newest valid snapshot generation of ``path``.

    Tries ``path`` then ``<name>.1``; a generation that is missing is
    skipped, one that is corrupt (bad JSON, failed integrity digest,
    inconsistent counts) is rejected with a logged warning.  Returns
    ``(service, path_used)`` or raises
    :class:`~repro.exceptions.SnapshotError` when no generation loads.
    """
    from repro.service.service import AggregationService

    path = Path(path)
    rejected: List[str] = []
    for candidate in (path, previous_snapshot_path(path)):
        if not candidate.is_file():
            continue
        try:
            service = AggregationService.load(candidate)
        except (ValidationError, ReproError, OSError) as exc:
            logger.warning(
                "rejecting corrupt snapshot %s: %s", candidate, exc
            )
            rejected.append(f"{candidate}: {exc}")
            continue
        if rejected:
            logger.warning(
                "recovered from older generation %s after rejecting %d "
                "corrupt snapshot(s)",
                candidate,
                len(rejected),
            )
        return service, candidate
    detail = "; ".join(rejected) if rejected else "no snapshot file exists"
    raise SnapshotError(
        f"no valid snapshot generation for {str(path)!r}: {detail}"
    )
