"""Argument validation helpers shared across the package.

These raise :class:`repro.exceptions.ValidationError` with messages that
name the offending parameter, so API misuse fails fast and readably instead
of surfacing as a NumPy broadcasting error three layers deeper.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError


def check_1d_array(
    values, name: str = "values", *, allow_empty: bool = False
) -> np.ndarray:
    """Coerce ``values`` to a 1-D float ndarray, rejecting NaN and infinities."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if not allow_empty and arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains NaN or infinite entries")
    return arr


def check_label_column(
    labels, name: str = "classes", *, n_classes: int | None = None
) -> np.ndarray:
    """Coerce a class-label column to a 1-D ``intp`` array of integers.

    The single validator behind every class-column surface (wire
    encoder, shard layout, training rows): 1-D, numeric, finite,
    integer-valued, and — when ``n_classes`` is given — within
    ``[0, n_classes)``.
    """
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValidationError(
            f"{name} must be a 1-D column of labels, got shape {arr.shape}"
        )
    if arr.size == 0:
        return np.empty(0, dtype=np.intp)
    if not np.issubdtype(arr.dtype, np.number):
        raise ValidationError(f"{name} must hold integer class labels")
    if not np.issubdtype(arr.dtype, np.integer):
        as_float = arr.astype(float)
        if not np.all(np.isfinite(as_float)) or np.any(
            as_float != np.floor(as_float)
        ):
            raise ValidationError(f"{name} must hold integer class labels")
    out = arr.astype(np.intp)
    if n_classes is not None:
        low, high = int(out.min()), int(out.max())
        if low < 0 or high >= n_classes:
            raise ValidationError(
                f"{name} must lie in [0, {n_classes}), got values spanning "
                f"[{low}, {high}]"
            )
    return out


def check_counts(
    counts: np.ndarray,
    name: str = "counts",
    *,
    error: type[ValidationError] = ValidationError,
) -> None:
    """Histogram counts only: finite, non-negative, integer-valued.

    The one rule for counts read from outside the process (wire partial
    frames, snapshot files); ``error`` lets each surface raise its own
    :class:`ValidationError` subclass.
    """
    if not np.all(np.isfinite(counts)):
        raise error(f"{name} contain non-finite values")
    if counts.size and float(counts.min()) < 0.0:
        raise error(f"{name} contain negative values")
    if not np.array_equal(counts, np.floor(counts)):
        raise error(f"{name} are not integer-valued histogram counts")


def check_json_number(
    value,
    name: str = "value",
    *,
    integer: bool = False,
    error: type[ValidationError] = ValidationError,
):
    """``value`` itself when it is a JSON number; else ``error`` naming ``name``.

    The one rule for numbers read from outside the process (deployment
    specs, snapshot files): ``float()``, ``int()`` and NumPy would read
    ``True`` as 1 and ``"3"`` as 3, so booleans and strings are rejected,
    never coerced, and ``integer`` rejects floats too, rather than
    truncating them.  ``error`` lets each surface raise its own
    :class:`ValidationError` subclass.
    """
    if isinstance(value, bool) or not isinstance(
        value, int if integer else (int, float)
    ):
        kind = "an integer" if integer else "numeric"
        raise error(f"{name} is not {kind}: got {value!r}")
    return value


def check_fraction(value, name: str = "value", *, inclusive_low: bool = False) -> float:
    """Validate a fraction in ``(0, 1]`` (or ``[0, 1]`` with ``inclusive_low``)."""
    value = float(value)
    low_ok = value >= 0.0 if inclusive_low else value > 0.0
    if not (low_ok and value <= 1.0):
        bound = "[0, 1]" if inclusive_low else "(0, 1]"
        raise ValidationError(f"{name} must lie in {bound}, got {value}")
    return value


def check_positive(value, name: str = "value") -> float:
    """Validate a strictly positive finite float."""
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ValidationError(f"{name} must be a positive finite number, got {value}")
    return value


def check_probability_vector(
    probs, name: str = "probs", *, atol: float = 1e-8
) -> np.ndarray:
    """Validate a vector of non-negative entries summing to one."""
    arr = check_1d_array(probs, name)
    if np.any(arr < -atol):
        raise ValidationError(f"{name} has negative entries")
    total = float(arr.sum())
    if abs(total - 1.0) > max(atol, 1e-6):
        raise ValidationError(f"{name} must sum to 1, sums to {total:.6g}")
    # Clean tiny numerical noise so downstream code can rely on exactness.
    arr = np.clip(arr, 0.0, None)
    return arr / arr.sum()
