"""Value-distortion operators (paper §2, "privacy-preserving methods").

A data provider holding a private value ``x`` discloses ``y = x + r`` where
``r`` is drawn once from a fixed noise distribution known to everyone:

* :class:`UniformRandomizer` — ``r ~ U[-alpha, +alpha]``,
* :class:`GaussianRandomizer` — ``r ~ N(0, sigma^2)``.

The paper's alternative *value-class membership* method (disclose only the
interval containing ``x``) is :class:`ValueClassMembership`, and
:class:`NullRandomizer` is the identity used by the "Original" baseline.

:func:`transition_matrix` builds ``P(Y in interval s | X = midpoint p)``,
the discretized noise kernel shared by the reconstruction algorithms and
the information-theoretic privacy metric.

The Gaussian kernels come from :mod:`scipy.special`, imported by the
:class:`GaussianRandomizer` methods that call them rather than with this
module, so uniform noise never loads SciPy.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro.core.partition import Partition
from repro.exceptions import ValidationError
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_1d_array, check_fraction, check_positive


class Randomizer(abc.ABC):
    """Base class: anything that maps private values to disclosed values."""

    #: short name used in experiment tables
    name: str = "randomizer"

    @abc.abstractmethod
    def randomize(self, values, seed=None) -> np.ndarray:
        """Return the disclosed version of ``values`` (never mutates input)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class AdditiveRandomizer(Randomizer):
    """Base class for ``y = x + r`` operators with a symmetric noise density."""

    @abc.abstractmethod
    def noise_pdf(self, delta) -> np.ndarray:
        """Noise density evaluated at ``delta`` (vectorized)."""

    @abc.abstractmethod
    def noise_cdf(self, delta) -> np.ndarray:
        """Noise CDF evaluated at ``delta`` (vectorized)."""

    @abc.abstractmethod
    def sample_noise(self, n: int, seed=None) -> np.ndarray:
        """Draw ``n`` noise values."""

    @abc.abstractmethod
    def privacy_interval_width(self, confidence: float) -> float:
        """Width ``W(c)`` of the shortest interval holding ``r`` with prob. ``c``.

        This is the paper's privacy metric: knowing ``y``, the value ``x``
        lies in an interval of width ``W(c)`` with ``c`` confidence.
        """

    @abc.abstractmethod
    def support_half_width(self, coverage: float = 1.0 - 1e-9) -> float:
        """Half-width that contains ``coverage`` of the noise mass.

        Finite for uniform noise; a high quantile for Gaussian noise.  Used
        to size the expanded partition that buckets randomized values.
        """

    def randomize(self, values, seed=None) -> np.ndarray:
        arr = check_1d_array(values, "values", allow_empty=True)
        return arr + self.sample_noise(arr.size, seed)


@dataclass(frozen=True, repr=False)
class UniformRandomizer(AdditiveRandomizer):
    """Additive uniform noise on ``[-half_width, +half_width]``.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import UniformRandomizer
    >>> noise = UniformRandomizer(half_width=0.25)
    >>> w = noise.randomize([0.5, 0.5, 0.5], seed=0)
    >>> bool(np.all(np.abs(w - 0.5) <= 0.25))
    True
    >>> noise.privacy_interval_width(0.95)  # the paper's W(95%)
    0.475
    """

    half_width: float
    name = "uniform"

    def __post_init__(self) -> None:
        check_positive(self.half_width, "half_width")

    @classmethod
    def from_privacy(
        cls, privacy: float, domain_span: float, confidence: float = 0.95
    ) -> "UniformRandomizer":
        """Size the noise so privacy at ``confidence`` is ``privacy * domain_span``.

        ``privacy`` follows the paper's convention: ``1.0`` means "100 %
        privacy", i.e. the 95 %-confidence interval for ``x`` given ``y`` is
        as wide as the whole attribute domain.
        """
        check_positive(privacy, "privacy")
        check_positive(domain_span, "domain_span")
        confidence = check_fraction(confidence, "confidence")
        # W(c) = 2 * alpha * c  =>  alpha = W / (2 c)
        return cls(half_width=privacy * domain_span / (2.0 * confidence))

    def noise_pdf(self, delta) -> np.ndarray:
        delta = np.asarray(delta, dtype=float)
        inside = np.abs(delta) <= self.half_width
        return np.where(inside, 1.0 / (2.0 * self.half_width), 0.0)

    def noise_cdf(self, delta) -> np.ndarray:
        delta = np.asarray(delta, dtype=float)
        scaled = (delta + self.half_width) / (2.0 * self.half_width)
        return np.clip(scaled, 0.0, 1.0)

    def sample_noise(self, n: int, seed=None) -> np.ndarray:
        rng = ensure_rng(seed)
        return rng.uniform(-self.half_width, self.half_width, size=int(n))

    def privacy_interval_width(self, confidence: float) -> float:
        confidence = check_fraction(confidence, "confidence")
        return 2.0 * self.half_width * confidence

    def support_half_width(self, coverage: float = 1.0 - 1e-9) -> float:
        # The support is bounded, so any valid coverage is satisfied by
        # the full half-width — but an invalid coverage must still fail
        # here, not pass silently just because the answer ignores it.
        check_fraction(coverage, "coverage")
        return self.half_width

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniformRandomizer(half_width={self.half_width:.6g})"


@dataclass(frozen=True, repr=False)
class GaussianRandomizer(AdditiveRandomizer):
    """Additive Gaussian noise ``N(0, sigma^2)``.

    Examples
    --------
    >>> from repro.core import GaussianRandomizer
    >>> noise = GaussianRandomizer.from_privacy(1.0, domain_span=100.0)
    >>> round(float(noise.sigma), 2)
    25.51
    >>> round(float(noise.privacy_interval_width(0.95)), 6)  # the target back
    100.0
    """

    sigma: float
    name = "gaussian"

    def __post_init__(self) -> None:
        check_positive(self.sigma, "sigma")

    @classmethod
    def from_privacy(
        cls, privacy: float, domain_span: float, confidence: float = 0.95
    ) -> "GaussianRandomizer":
        """Size ``sigma`` so privacy at ``confidence`` is ``privacy * domain_span``."""
        check_positive(privacy, "privacy")
        check_positive(domain_span, "domain_span")
        confidence = check_fraction(confidence, "confidence")
        if confidence == 1.0:
            raise ValidationError(
                "Gaussian noise has unbounded support: confidence must be < 1"
            )
        from scipy import special

        z = special.ndtri(0.5 + confidence / 2.0)
        return cls(sigma=privacy * domain_span / (2.0 * z))

    def noise_pdf(self, delta) -> np.ndarray:
        # scipy.stats.norm.pdf(delta, scale=sigma) in its own operation
        # order: regrouping the two divisions changes the last bit.
        x = np.asarray(delta, dtype=float) / self.sigma
        return np.exp(-(x**2) / 2.0) / np.sqrt(2 * np.pi) / self.sigma

    def noise_cdf(self, delta) -> np.ndarray:
        from scipy import special

        return special.ndtr(np.asarray(delta, dtype=float) / self.sigma)

    def sample_noise(self, n: int, seed=None) -> np.ndarray:
        rng = ensure_rng(seed)
        return rng.normal(0.0, self.sigma, size=int(n))

    def privacy_interval_width(self, confidence: float) -> float:
        confidence = check_fraction(confidence, "confidence")
        if confidence == 1.0:
            return math.inf
        from scipy import special

        z = special.ndtri(0.5 + confidence / 2.0)
        return 2.0 * z * self.sigma

    def support_half_width(self, coverage: float = 1.0 - 1e-9) -> float:
        coverage = check_fraction(coverage, "coverage")
        if coverage == 1.0:
            raise ValidationError("Gaussian support is unbounded; use coverage < 1")
        from scipy import special

        return float(special.ndtri(0.5 + coverage / 2.0) * self.sigma)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GaussianRandomizer(sigma={self.sigma:.6g})"


@dataclass(frozen=True, repr=False)
class ValueClassMembership(Randomizer):
    """Disclose only the interval a value belongs to (paper §2, method 1).

    The disclosed value is the midpoint of the interval containing ``x`` —
    a deterministic, discretization-based disclosure.  Privacy at every
    confidence level is the interval width.

    Examples
    --------
    >>> from repro.core import Partition, ValueClassMembership
    >>> vcm = ValueClassMembership(Partition.uniform(0.0, 1.0, 4))
    >>> vcm.randomize([0.1, 0.45, 0.99]).tolist()
    [0.125, 0.375, 0.875]
    >>> vcm.privacy_interval_width(0.95)
    0.25
    """

    partition: Partition
    name = "value-class"

    def randomize(self, values, seed=None) -> np.ndarray:
        arr = check_1d_array(values, "values", allow_empty=True)
        if arr.size == 0:
            # Copy even when empty: randomize() never returns the caller's
            # buffer (matching NullRandomizer and the additive operators).
            return arr.copy()
        return self.partition.midpoints[self.partition.locate(arr)]

    def privacy_interval_width(self, confidence: float) -> float:
        """Interval width is the privacy at every confidence level."""
        check_fraction(confidence, "confidence")
        return float(self.partition.widths.max())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ValueClassMembership(n_intervals={self.partition.n_intervals})"


class NullRandomizer(Randomizer):
    """Identity disclosure — the "Original" (no privacy) baseline.

    Examples
    --------
    >>> from repro.core import NullRandomizer
    >>> NullRandomizer().randomize([1.0, 2.0]).tolist()
    [1.0, 2.0]
    >>> NullRandomizer().privacy_interval_width(0.95)
    0.0
    """

    name = "none"

    def randomize(self, values, seed=None) -> np.ndarray:
        return check_1d_array(values, "values", allow_empty=True).copy()

    def privacy_interval_width(self, confidence: float) -> float:
        """No privacy at any confidence level."""
        check_fraction(confidence, "confidence")
        return 0.0


def transition_matrix(
    y_partition: Partition,
    x_partition: Partition,
    randomizer: AdditiveRandomizer,
    *,
    method: str = "integrated",
) -> np.ndarray:
    """Discretized noise kernel ``M[s, p] = P(Y in I_s | X = midpoint_p)``.

    Parameters
    ----------
    y_partition:
        Grid bucketing the *randomized* values (usually an expanded copy of
        ``x_partition``; see :meth:`Partition.expanded`).
    x_partition:
        Grid of candidate original values.
    method:
        ``"integrated"`` (default) integrates the noise density over each
        ``y`` interval via the noise CDF — exact for midpoint-valued ``X``.
        ``"density"`` evaluates the density at interval midpoints times the
        interval width, which is the paper's midpoint approximation.

    Returns
    -------
    numpy.ndarray of shape ``(len(y_partition), len(x_partition))`` whose
    columns each sum to (approximately) one when ``y_partition`` covers the
    reachable range of ``Y``.
    """
    x_mid = x_partition.midpoints
    if method == "integrated":
        upper = randomizer.noise_cdf(y_partition.edges[1:, None] - x_mid[None, :])
        lower = randomizer.noise_cdf(y_partition.edges[:-1, None] - x_mid[None, :])
        matrix = upper - lower
    elif method == "density":
        delta = y_partition.midpoints[:, None] - x_mid[None, :]
        matrix = randomizer.noise_pdf(delta) * y_partition.widths[:, None]
    else:
        raise ValidationError(f"unknown transition method: {method!r}")
    return np.clip(matrix, 0.0, None)
