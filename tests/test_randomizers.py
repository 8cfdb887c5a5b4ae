"""Unit, statistical, and property tests for repro.core.randomizers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from repro.core.randomizers import (
    GaussianRandomizer,
    NullRandomizer,
    UniformRandomizer,
    ValueClassMembership,
    transition_matrix,
)
from repro.exceptions import ValidationError


class TestUniformRandomizer:
    def test_noise_bounded(self, rng):
        r = UniformRandomizer(half_width=2.0)
        noise = r.sample_noise(10_000, seed=rng)
        assert np.all(np.abs(noise) <= 2.0)

    def test_noise_mean_near_zero(self, rng):
        r = UniformRandomizer(half_width=1.0)
        assert abs(r.sample_noise(50_000, seed=rng).mean()) < 0.02

    def test_randomize_adds_noise(self):
        r = UniformRandomizer(half_width=0.5)
        x = np.linspace(0, 1, 100)
        y = r.randomize(x, seed=0)
        assert np.all(np.abs(y - x) <= 0.5)

    def test_randomize_does_not_mutate(self):
        r = UniformRandomizer(half_width=0.5)
        x = np.zeros(10)
        r.randomize(x, seed=0)
        assert np.all(x == 0)

    def test_pdf_normalizes(self):
        r = UniformRandomizer(half_width=3.0)
        grid = np.linspace(-4, 4, 10_001)
        integral = np.trapezoid(r.noise_pdf(grid), grid)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_cdf_limits(self):
        r = UniformRandomizer(half_width=1.0)
        assert r.noise_cdf(-2.0) == 0.0
        assert r.noise_cdf(0.0) == pytest.approx(0.5)
        assert r.noise_cdf(2.0) == 1.0

    def test_privacy_interval_width(self):
        r = UniformRandomizer(half_width=1.0)
        assert r.privacy_interval_width(0.95) == pytest.approx(1.9)
        assert r.privacy_interval_width(1.0) == pytest.approx(2.0)

    def test_support_half_width_validates_coverage(self):
        """Bad coverage fails loudly even though the answer ignores it."""
        r = UniformRandomizer(half_width=1.0)
        assert r.support_half_width(0.5) == 1.0
        with pytest.raises(ValidationError):
            r.support_half_width(2.0)
        with pytest.raises(ValidationError):
            r.support_half_width(0.0)

    def test_from_privacy_roundtrip(self):
        r = UniformRandomizer.from_privacy(0.5, domain_span=10.0, confidence=0.95)
        assert r.privacy_interval_width(0.95) == pytest.approx(5.0)

    def test_support_half_width(self):
        assert UniformRandomizer(2.5).support_half_width() == 2.5

    def test_rejects_bad_half_width(self):
        with pytest.raises(ValidationError):
            UniformRandomizer(half_width=0.0)
        with pytest.raises(ValidationError):
            UniformRandomizer(half_width=-1.0)

    def test_seeded_reproducibility(self):
        r = UniformRandomizer(half_width=1.0)
        a = r.randomize(np.zeros(50), seed=42)
        b = r.randomize(np.zeros(50), seed=42)
        np.testing.assert_array_equal(a, b)


class TestGaussianRandomizer:
    def test_noise_moments(self, rng):
        r = GaussianRandomizer(sigma=2.0)
        noise = r.sample_noise(100_000, seed=rng)
        assert abs(noise.mean()) < 0.03
        assert noise.std() == pytest.approx(2.0, rel=0.02)

    def test_privacy_interval_width(self):
        r = GaussianRandomizer(sigma=1.0)
        # 95% central interval of N(0,1) is +-1.96
        assert r.privacy_interval_width(0.95) == pytest.approx(3.9199, abs=1e-3)

    def test_privacy_unbounded_at_full_confidence(self):
        r = GaussianRandomizer(sigma=1.0)
        assert r.privacy_interval_width(1.0) == np.inf

    def test_from_privacy_roundtrip(self):
        r = GaussianRandomizer.from_privacy(1.0, domain_span=100.0, confidence=0.95)
        assert r.privacy_interval_width(0.95) == pytest.approx(100.0)

    def test_from_privacy_rejects_full_confidence(self):
        with pytest.raises(ValidationError):
            GaussianRandomizer.from_privacy(1.0, 1.0, confidence=1.0)

    def test_support_half_width_quantile(self):
        r = GaussianRandomizer(sigma=1.0)
        assert r.support_half_width(0.99) == pytest.approx(
            stats.norm.ppf(0.995), rel=1e-6
        )

    def test_support_rejects_full_coverage(self):
        with pytest.raises(ValidationError):
            GaussianRandomizer(sigma=1.0).support_half_width(1.0)


#: sigmas spanning the float range, down to 1e-300 and up to 1e300
EXTREME_SIGMAS = (1e-300, 1e-150, 1e-5, 0.3, 1.0, 25.5, 1e150, 1e300)
#: confidence levels in (0, 1), including both ends' extremes
CONFIDENCE_GRID = (1e-9, *np.linspace(0.01, 0.99, 99).tolist(), 0.999, 1 - 1e-9)


def _delta_grid(sigma: float) -> np.ndarray:
    """Offsets with signed zeros, infinities, NaN, a subnormal and +-1e308."""
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308]
    spread = np.random.default_rng(0).standard_normal(2000)
    return np.concatenate([edges, spread, spread * sigma, spread * 1e-300])


class TestGaussianMatchesScipyStats:
    """The Gaussian randomizer is bitwise what ``scipy.stats.norm`` returns.

    The randomizer calls the ``scipy.special`` kernels directly so that
    importing it does not load ``scipy.stats``; these tests pin that the
    values did not move, on this scipy and on any later one.
    """

    @pytest.mark.parametrize("sigma", EXTREME_SIGMAS)
    def test_noise_pdf(self, sigma):
        delta = _delta_grid(sigma)
        with np.errstate(all="ignore"):
            ours = GaussianRandomizer(sigma=sigma).noise_pdf(delta)
            theirs = stats.norm.pdf(delta, scale=sigma)
        assert np.array_equal(ours, theirs, equal_nan=True)

    @pytest.mark.parametrize("sigma", EXTREME_SIGMAS)
    def test_noise_cdf(self, sigma):
        delta = _delta_grid(sigma)
        with np.errstate(all="ignore"):
            ours = GaussianRandomizer(sigma=sigma).noise_cdf(delta)
            theirs = stats.norm.cdf(delta, scale=sigma)
        assert np.array_equal(ours, theirs, equal_nan=True)

    def test_from_privacy(self):
        ours = [
            GaussianRandomizer.from_privacy(1.5, 80.0, confidence=c).sigma
            for c in CONFIDENCE_GRID
        ]
        theirs = [
            1.5 * 80.0 / (2.0 * stats.norm.ppf(0.5 + c / 2.0)) for c in CONFIDENCE_GRID
        ]
        assert np.array_equal(ours, theirs)

    def test_privacy_interval_width(self):
        r = GaussianRandomizer(sigma=3.7)
        ours = [r.privacy_interval_width(c) for c in CONFIDENCE_GRID]
        theirs = [2.0 * stats.norm.ppf(0.5 + c / 2.0) * 3.7 for c in CONFIDENCE_GRID]
        assert np.array_equal(ours, theirs)

    def test_support_half_width(self):
        r = GaussianRandomizer(sigma=3.7)
        ours = [r.support_half_width(c) for c in CONFIDENCE_GRID]
        theirs = [float(stats.norm.ppf(0.5 + c / 2.0) * 3.7) for c in CONFIDENCE_GRID]
        assert np.array_equal(ours, theirs)


class TestValueClassMembership:
    def test_discloses_midpoints(self, unit_partition):
        r = ValueClassMembership(unit_partition)
        out = r.randomize([0.01, 0.99, 0.55])
        np.testing.assert_allclose(out, [0.05, 0.95, 0.55])

    def test_deterministic(self, unit_partition):
        r = ValueClassMembership(unit_partition)
        x = np.linspace(0, 1, 37)
        np.testing.assert_array_equal(r.randomize(x), r.randomize(x))

    def test_privacy_is_interval_width(self, unit_partition):
        r = ValueClassMembership(unit_partition)
        assert r.privacy_interval_width(0.5) == pytest.approx(0.1)
        assert r.privacy_interval_width(0.99) == pytest.approx(0.1)

    def test_empty_input(self, unit_partition):
        r = ValueClassMembership(unit_partition)
        assert r.randomize([]).size == 0

    def test_empty_input_returns_copy(self, unit_partition):
        """The no-mutation contract holds for empty input too."""
        r = ValueClassMembership(unit_partition)
        x = np.empty(0)
        assert r.randomize(x) is not x


class TestNullRandomizer:
    def test_identity(self):
        r = NullRandomizer()
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(r.randomize(x), x)

    def test_returns_copy(self):
        r = NullRandomizer()
        x = np.array([1.0])
        out = r.randomize(x)
        out[0] = 99.0
        assert x[0] == 1.0

    def test_zero_privacy(self):
        assert NullRandomizer().privacy_interval_width(0.95) == 0.0


class TestTransitionMatrix:
    @pytest.mark.parametrize("method", ["integrated", "density"])
    def test_columns_sum_to_one(self, unit_partition, method):
        r = UniformRandomizer(half_width=0.15)
        y_part = unit_partition.expanded(0.15)
        m = transition_matrix(y_part, unit_partition, r, method=method)
        np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=0.05)

    def test_integrated_exact_column_sums(self, unit_partition):
        r = UniformRandomizer(half_width=0.15)
        y_part = unit_partition.expanded(0.15)
        m = transition_matrix(y_part, unit_partition, r, method="integrated")
        np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-12)

    def test_non_negative(self, unit_partition):
        r = GaussianRandomizer(sigma=0.1)
        y_part = unit_partition.expanded(0.5)
        m = transition_matrix(y_part, unit_partition, r)
        assert m.min() >= 0.0

    def test_unknown_method_rejected(self, unit_partition):
        r = UniformRandomizer(half_width=0.1)
        with pytest.raises(ValidationError):
            transition_matrix(unit_partition, unit_partition, r, method="nope")

    def test_shape(self, unit_partition):
        r = UniformRandomizer(half_width=0.1)
        y_part = unit_partition.expanded(0.1)
        m = transition_matrix(y_part, unit_partition, r)
        assert m.shape == (y_part.n_intervals, unit_partition.n_intervals)


@given(
    half_width=st.floats(1e-3, 1e3),
    confidence=st.floats(0.01, 1.0),
)
def test_property_uniform_privacy_monotone(half_width, confidence):
    r = UniformRandomizer(half_width=half_width)
    width = r.privacy_interval_width(confidence)
    assert 0 < width <= 2 * half_width + 1e-9
    # privacy grows with confidence
    if confidence < 0.99:
        assert width < r.privacy_interval_width(min(confidence + 0.01, 1.0)) + 1e-12


@given(
    privacy=st.floats(0.05, 4.0),
    span=st.floats(0.1, 1e5),
    kind=st.sampled_from(["uniform", "gaussian"]),
)
def test_property_from_privacy_inverts(privacy, span, kind):
    from repro.core.privacy import noise_for_privacy, privacy_of_randomizer

    r = noise_for_privacy(kind, privacy, span, 0.95)
    assert privacy_of_randomizer(r, span, 0.95) == pytest.approx(privacy, rel=1e-9)
