"""Machine-readable benchmark artifacts (``BENCH_<id>.json``).

Each experiment run produces one schema-versioned JSON document next to
the human-readable ASCII tables.  The document separates *deterministic*
content — params and metrics, reproducible bit-for-bit from the seed —
from *volatile* measurement context (wall clock, peak RSS, host info),
so two runs at the same seed can be compared field-by-field: the
deterministic sections must match exactly, the volatile ones are judged
with tolerances by :mod:`repro.bench.compare`.

Readers reject documents whose ``schema_version`` they do not know:
silently reinterpreting a future layout would corrupt every trend line
built on top of the artifacts.
"""

from __future__ import annotations

import json
import math
import os
import platform
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.exceptions import BenchmarkError

__all__ = [
    "SCHEMA_VERSION",
    "ARTIFACT_PREFIX",
    "BenchArtifact",
    "artifact_path",
    "check_metrics",
    "check_timing",
    "host_info",
    "load_artifact",
    "load_artifact_dir",
    "write_artifact",
]

#: version of the artifact layout; bump on any structural change
SCHEMA_VERSION = 1

#: artifact filename prefix: ``BENCH_<experiment id>.json``
ARTIFACT_PREFIX = "BENCH_"

_SCALAR_TYPES = (bool, int, float, str)


def check_metrics(metrics, *, label: str = "metrics") -> dict:
    """Validate a flat ``{str: scalar}`` mapping and return it as a dict.

    Experiments must return JSON-scalar metrics so artifacts stay
    diffable; nested structures belong in separate keys (``"acc_fn1"``,
    not ``{"acc": {...}}``).  Non-finite floats are allowed — ``nan``
    chi-squared fields are meaningful — and are serialized as the strings
    ``"NaN"``/``"Infinity"``/``"-Infinity"`` to keep the documents strict
    JSON (decoded back to floats on load).
    """
    if not isinstance(metrics, dict):
        raise BenchmarkError(
            f"{label} must be a dict of scalars, got {type(metrics).__name__}"
        )
    for key, value in metrics.items():
        if not isinstance(key, str):
            raise BenchmarkError(f"{label} keys must be strings, got {key!r}")
        if value is not None and not isinstance(value, _SCALAR_TYPES):
            raise BenchmarkError(
                f"{label}[{key!r}] must be a JSON scalar "
                f"(bool/int/float/str/None), got {type(value).__name__}"
            )
    return dict(metrics)


def check_timing(timing, *, label: str = "timing") -> dict:
    """Validate a flat ``{str: number}`` mapping and return it as a dict.

    Timings are measurements — seconds, kilobytes, speedup ratios — that
    the comparator divides and checks against floors, so unlike metrics
    they admit only ``int`` and ``float`` values (``bool`` excluded).
    """
    timing = check_metrics(timing, label=label)
    for key, value in timing.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise BenchmarkError(
                f"{label}[{key!r}] must be a number, got {type(value).__name__}"
            )
    return timing


#: encoding of non-finite floats in the JSON documents.  ``json.dumps``
#: would otherwise emit bare ``NaN``/``Infinity`` literals, which are not
#: JSON — jq, JavaScript, and most dashboard tooling reject them.
_NONFINITE_TO_STRING = {
    math.inf: "Infinity",
    -math.inf: "-Infinity",
}
_STRING_TO_NONFINITE = {
    "NaN": math.nan,
    "Infinity": math.inf,
    "-Infinity": -math.inf,
}


def _encode_nonfinite(value):
    """Recursively replace non-finite floats with their string spelling.

    Genuine *strings* that spell a sentinel (or start with the escape
    character) are backslash-escaped so the round trip is value- and
    type-preserving for every scalar.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else _NONFINITE_TO_STRING[value]
    if isinstance(value, str) and (
        value in _STRING_TO_NONFINITE or value.startswith("\\")
    ):
        return "\\" + value
    if isinstance(value, dict):
        return {key: _encode_nonfinite(inner) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_nonfinite(inner) for inner in value]
    return value


def _decode_nonfinite(value):
    """Inverse of :func:`_encode_nonfinite`."""
    if isinstance(value, str):
        if value in _STRING_TO_NONFINITE:
            return _STRING_TO_NONFINITE[value]
        if value.startswith("\\"):
            return value[1:]
        return value
    if isinstance(value, dict):
        return {key: _decode_nonfinite(inner) for key, inner in value.items()}
    if isinstance(value, list):
        return [_decode_nonfinite(inner) for inner in value]
    return value


def host_info() -> dict:
    """Measurement context recorded alongside every artifact."""
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
    }


@dataclass(frozen=True)
class BenchArtifact:
    """One experiment's recorded run.

    Deterministic sections (compared exactly at fixed seed):
    ``experiment_id``, ``title``, ``tags``, ``seed``, ``scale``,
    ``params``, ``metrics``, ``status``.  Volatile sections:
    ``timing`` (wall seconds, peak RSS) and ``host``.
    """

    experiment_id: str
    seed: int
    scale: float
    params: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    host: dict = field(default_factory=dict)
    title: str = ""
    tags: tuple = ()
    status: str = "ok"
    error: str = ""
    schema_version: int = SCHEMA_VERSION

    def deterministic_dict(self) -> dict:
        """The seed-reproducible portion, for bitwise run-to-run diffs."""
        doc = self.to_dict()
        for volatile in ("timing", "host"):
            doc.pop(volatile)
        return doc

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["tags"] = list(self.tags)
        return doc

    @classmethod
    def from_dict(cls, doc, *, source: str = "<dict>") -> "BenchArtifact":
        if not isinstance(doc, dict):
            raise BenchmarkError(f"{source}: artifact root must be an object")
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise BenchmarkError(
                f"{source}: unsupported artifact schema_version {version!r} "
                f"(this reader understands {SCHEMA_VERSION}); regenerate the "
                "artifact or upgrade the reader"
            )
        missing = {
            "experiment_id",
            "seed",
            "scale",
            "params",
            "metrics",
            "timing",
        } - set(doc)
        if missing:
            raise BenchmarkError(
                f"{source}: artifact is missing fields {sorted(missing)}"
            )
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise BenchmarkError(
                f"{source}: artifact has unknown fields {sorted(unknown)}"
            )
        doc = dict(doc)
        doc["tags"] = tuple(doc.get("tags", ()))
        for section in ("params", "metrics", "timing"):
            doc[section] = _decode_nonfinite(doc[section])
        check_metrics(doc["metrics"], label=f"{source} metrics")
        artifact = cls(**doc)
        check_metrics(artifact.params, label=f"{source} params")
        check_timing(artifact.timing, label=f"{source} timing")
        return artifact


def artifact_path(directory, experiment_id: str) -> Path:
    """``<directory>/BENCH_<experiment_id>.json``."""
    return Path(directory) / f"{ARTIFACT_PREFIX}{experiment_id}.json"


def write_artifact(artifact: BenchArtifact, directory) -> Path:
    """Serialize ``artifact`` into ``directory`` and return the path.

    The JSON is sorted and newline-terminated, so artifacts produced by
    the same run are byte-stable regardless of dict build order.  The
    document is *strict* JSON: non-finite floats are spelled as the
    strings ``"NaN"`` / ``"Infinity"`` / ``"-Infinity"`` (decoded back to
    floats by :func:`load_artifact`), so jq and friends can consume it.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = artifact_path(directory, artifact.experiment_id)
    doc = _encode_nonfinite(artifact.to_dict())
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")
    return path


def load_artifact(path) -> BenchArtifact:
    """Read and validate one ``BENCH_*.json`` file."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise BenchmarkError(f"artifact {str(path)!r} does not exist") from None
    except json.JSONDecodeError as exc:
        raise BenchmarkError(
            f"artifact {str(path)!r} is not valid JSON: {exc}"
        ) from None
    return BenchArtifact.from_dict(doc, source=str(path))


def load_artifact_dir(directory) -> dict:
    """Load every ``BENCH_*.json`` under ``directory``, keyed by id.

    Returns an id-sorted dict; an empty or missing directory is an
    error (comparing against nothing is never what the caller meant).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise BenchmarkError(f"artifact directory {str(directory)!r} does not exist")
    artifacts = {}
    for path in sorted(directory.glob(f"{ARTIFACT_PREFIX}*.json")):
        artifact = load_artifact(path)
        if artifact.experiment_id in artifacts:
            raise BenchmarkError(
                f"{str(directory)!r} holds two artifacts for experiment "
                f"{artifact.experiment_id!r}"
            )
        artifacts[artifact.experiment_id] = artifact
    if not artifacts:
        raise BenchmarkError(
            f"no {ARTIFACT_PREFIX}*.json artifacts found in {str(directory)!r}"
        )
    return artifacts
