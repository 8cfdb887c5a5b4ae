"""Exception hierarchy for the PPDM reproduction library.

Every error raised deliberately by this package derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while still letting genuine bugs (``TypeError`` and
friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong shape, range, or dtype)."""


class NotFittedError(ReproError, RuntimeError):
    """A model method requiring a prior ``fit`` was called before fitting."""


class ConvergenceWarning(UserWarning):
    """An iterative algorithm stopped on its iteration cap, not its tolerance."""


class SchemaError(ReproError, ValueError):
    """A dataset column does not match the declared attribute schema."""


class SerializationError(ValidationError):
    """A snapshot payload does not match the schema it claims to describe.

    Raised by :mod:`repro.serialize` and the service restore paths when a
    stored document is structurally valid JSON but semantically
    inconsistent — e.g. histogram counts that are negative or whose
    total disagrees with the snapshot's record counts.  Subclasses
    :class:`ValidationError`, so existing ``except ValidationError``
    callers keep working.
    """


class WireFormatError(ValidationError):
    """A binary wire body is malformed, truncated, or absurdly large.

    Raised by :mod:`repro.service.wire` for frames whose bytes cannot be
    decoded as they claim — bad magic, truncated streams, corrupted
    codec payloads, or headers declaring more cells than the shared
    decode-bomb cap allows.  Subclasses :class:`ValidationError`, so the
    HTTP front end's existing 400 mapping (and every ``except
    ValidationError`` caller) keeps working.
    """


class DecodedSizeError(WireFormatError):
    """A compressed body's decoded size exceeds the configured cap.

    The decompression-bomb signal: the wire bytes were small, but the
    stream would expand past the decoder's explicit decompressed-size
    bound.  The HTTP front end maps it to 413 (the request *entity* is
    too large, just measured after decoding) while other
    :class:`WireFormatError` cases stay 400.
    """


class BenchmarkError(ReproError, RuntimeError):
    """The benchmark orchestration layer hit an unusable state.

    Raised by :mod:`repro.bench` for duplicate experiment ids, unknown
    ids/tags, malformed or version-incompatible ``BENCH_*.json``
    artifacts, and invalid comparator thresholds.
    """


class ClusterError(ReproError, RuntimeError):
    """The multi-worker cluster tier hit an unservable state.

    Raised by :mod:`repro.service.cluster` when a coordinator operation
    needs worker state it cannot get — e.g. ``/train`` while a
    registered worker is unreachable *and* has never synced a partial.
    The HTTP front end maps it to status 503 (the condition is
    operational, not a bad request: the same call succeeds once the
    worker syncs).
    """


class SnapshotError(ReproError, OSError):
    """The durability layer failed to persist or recover a snapshot.

    Raised by :mod:`repro.service.resilience` (and the HTTP front end's
    ``/snapshot`` route) when an atomic snapshot write fails — disk
    full, injected chaos fault, unwritable directory — or when recovery
    finds no loadable generation.  Subclasses :class:`OSError` because
    the proximate cause is an I/O failure, and :class:`ReproError` so a
    single ``except ReproError`` still catches every deliberate error.
    """


class AnalysisError(ReproError, RuntimeError):
    """The static-analysis layer (``ppdm lint``) hit an unusable state.

    Raised by :mod:`repro.analysis` for duplicate checker/rule ids,
    unknown rule selections, and malformed baseline files — *not* for
    findings in analyzed code (those are data, reported as
    :class:`~repro.analysis.Finding`).
    """
