"""Tests for the batched reconstruction engine and kernel cache.

The central property: the batched sweep is **bit-identical** to the
looped reference path (`_prepare` + `_run_bayes`) per problem — same
estimates, same iteration counts, same stopping decisions — across noise
kinds, stopping rules, and ragged problem sizes.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy
from scipy import stats

from repro.core import (
    BayesReconstructor,
    GaussianRandomizer,
    Partition,
    UniformRandomizer,
)
from repro.core._chi2_table import CHI2_95
from repro.core.engine import (
    EngineConfig,
    KernelCache,
    ReconstructionEngine,
    ReconstructionProblem,
    _chi2_fit,
    _run_bayes_batch,
)
from repro.core.reconstruction import _prepare, _run_bayes
from repro.exceptions import ConvergenceWarning, ValidationError


def _reference(values, partition, randomizer, config: EngineConfig):
    """The pre-engine looped path, problem by problem."""
    y_counts, kernel = _prepare(
        values,
        partition,
        randomizer,
        transition_method=config.transition_method,
        coverage=config.coverage,
    )
    m = partition.n_intervals
    theta0 = np.full(m, 1.0 / m)
    return _run_bayes(
        y_counts,
        kernel,
        theta0,
        max_iterations=config.max_iterations,
        tol=config.tol,
        stopping=config.stopping,
    )


class TestEngineConfig:
    def test_defaults_valid(self):
        config = EngineConfig()
        assert config.max_iterations == 500
        assert config.stopping == "chi2"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"tol": 0.0},
            {"tol": -1e-3},
            {"stopping": "psychic"},
            {"transition_method": "midpoint"},
            {"coverage": 0.0},
            {"coverage": 2.0},
            {"coverage": -0.5},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValidationError):
            EngineConfig(**kwargs)

    def test_coerces_types(self):
        config = EngineConfig(max_iterations=10.0, tol=1, coverage=1)
        assert config.max_iterations == 10 and isinstance(config.max_iterations, int)
        assert config.tol == 1.0 and isinstance(config.tol, float)


class TestKernelCache:
    def setup_method(self):
        self.part = Partition.uniform(0.0, 1.0, 12)
        self.noise = UniformRandomizer(half_width=0.2)

    def test_hit_returns_same_objects(self):
        cache = KernelCache()
        first = cache.get(self.part, self.noise, method="integrated", coverage=0.999)
        second = cache.get(self.part, self.noise, method="integrated", coverage=0.999)
        assert first[0] is second[0] and first[1] is second[1]
        assert cache.hits == 1 and cache.misses == 1

    def test_equal_parameters_share_an_entry(self):
        """Distinct but equal partitions/randomizers hit the same kernel."""
        cache = KernelCache()
        cache.get(self.part, self.noise, method="integrated", coverage=0.999)
        other_part = Partition.uniform(0.0, 1.0, 12)
        other_noise = UniformRandomizer(half_width=0.2)
        cache.get(other_part, other_noise, method="integrated", coverage=0.999)
        assert cache.hits == 1 and len(cache) == 1

    def test_different_parameters_miss(self):
        cache = KernelCache()
        cache.get(self.part, self.noise, method="integrated", coverage=0.999)
        cache.get(
            self.part, UniformRandomizer(0.3), method="integrated", coverage=0.999
        )
        cache.get(self.part, self.noise, method="density", coverage=0.999)
        cache.get(
            Partition.uniform(0, 2, 12),
            self.noise,
            method="integrated",
            coverage=0.999,
        )
        assert cache.misses == 4 and cache.hits == 0

    def test_lru_eviction(self):
        cache = KernelCache(maxsize=2)
        cache.get(
            self.part, UniformRandomizer(0.1), method="integrated", coverage=0.999
        )
        cache.get(
            self.part, UniformRandomizer(0.2), method="integrated", coverage=0.999
        )
        # Touch the first so the second becomes least-recently-used.
        cache.get(
            self.part, UniformRandomizer(0.1), method="integrated", coverage=0.999
        )
        cache.get(
            self.part, UniformRandomizer(0.3), method="integrated", coverage=0.999
        )
        assert len(cache) == 2
        cache.get(
            self.part, UniformRandomizer(0.1), method="integrated", coverage=0.999
        )
        assert cache.hits == 2  # 0.1 survived; 0.2 was evicted

    def test_zero_maxsize_disables_storage(self):
        cache = KernelCache(maxsize=0)
        cache.get(self.part, self.noise, method="integrated", coverage=0.999)
        cache.get(self.part, self.noise, method="integrated", coverage=0.999)
        assert cache.hits == 0 and cache.misses == 2 and len(cache) == 0

    def test_unhashable_randomizer_bypasses_cache(self):
        class MutableNoise(UniformRandomizer):
            __hash__ = None

        noise = MutableNoise(half_width=0.2)
        cache = KernelCache()
        a = cache.get(self.part, noise, method="integrated", coverage=0.999)
        b = cache.get(self.part, noise, method="integrated", coverage=0.999)
        assert a[1] is not b[1]
        assert np.array_equal(a[1], b[1])
        assert len(cache) == 0

    def test_identity_equality_randomizer_bypasses_cache(self):
        """Plain classes hash by identity; caching them would go stale
        after an in-place parameter mutation, so they are never cached."""

        class PlainNoise:
            def __init__(self, half_width):
                self.half_width = half_width

            def support_half_width(self, coverage=1.0 - 1e-9):
                return self.half_width

            def noise_cdf(self, delta):
                return UniformRandomizer(self.half_width).noise_cdf(delta)

        noise = PlainNoise(0.2)
        cache = KernelCache()
        _, before = cache.get(self.part, noise, method="integrated", coverage=0.999)
        assert len(cache) == 0
        noise.half_width = 0.4  # mutate in place — must NOT serve stale kernel
        _, after = cache.get(self.part, noise, method="integrated", coverage=0.999)
        assert not np.array_equal(before, after)

    def test_cached_kernel_is_readonly(self):
        cache = KernelCache()
        _, kernel = cache.get(
            self.part, self.noise, method="integrated", coverage=0.999
        )
        with pytest.raises(ValueError):
            kernel[0, 0] = 1.0

    def test_clear(self):
        cache = KernelCache()
        cache.get(self.part, self.noise, method="integrated", coverage=0.999)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0

    def test_rejects_negative_maxsize(self):
        with pytest.raises(ValidationError):
            KernelCache(maxsize=-1)


class TestBatchedIdentity:
    """Batched sweeps are bitwise equal to the looped reference path."""

    @pytest.mark.parametrize("noise_kind", ["uniform", "gaussian"])
    @pytest.mark.parametrize("stopping", ["chi2", "delta"])
    def test_ragged_batch_matches_looped(self, noise_kind, stopping):
        rng = np.random.default_rng(42)
        part = Partition.uniform(0.0, 1.0, 18)
        noise = (
            UniformRandomizer(half_width=0.25)
            if noise_kind == "uniform"
            else GaussianRandomizer(sigma=0.15)
        )
        config = EngineConfig(stopping=stopping, tol=1e-4, max_iterations=300)
        # Ragged class sizes, different underlying shapes per problem.
        sizes = (3000, 750, 120, 4800)
        problems = []
        for i, size in enumerate(sizes):
            x = np.clip(rng.normal(0.25 + 0.15 * i, 0.1, size), 0.0, 1.0)
            problems.append((noise.randomize(x, seed=rng), part, noise))

        engine = ReconstructionEngine(config)
        results = engine.reconstruct_batch(problems)
        assert engine.kernel_cache.misses == 1
        assert engine.kernel_cache.hits == len(sizes) - 1

        for (values, _, _), result in zip(problems, results):
            theta, iters, converged, deltas, chi2_stat, chi2_thresh = _reference(
                values, part, noise, config
            )
            # check_probability_vector re-normalizes on construction, so
            # compare through the same constructor the looped path used
            from repro.core.histogram import HistogramDistribution

            ref = HistogramDistribution(part, theta)
            assert np.array_equal(result.distribution.probs, ref.probs)
            assert result.n_iterations == iters
            assert result.converged == converged
            assert result.delta_history == tuple(deltas)
            if np.isfinite(chi2_stat):
                assert result.chi2_statistic == chi2_stat
                assert result.chi2_threshold == chi2_thresh

    def test_single_problem_equals_bayes_reconstructor(self):
        rng = np.random.default_rng(1)
        part = Partition.uniform(0.0, 1.0, 15)
        noise = UniformRandomizer(half_width=0.2)
        w = noise.randomize(rng.uniform(0.3, 0.7, 2500), seed=2)
        single = BayesReconstructor().reconstruct(w, part, noise)
        [via_batch] = BayesReconstructor().reconstruct_batch([(w, part, noise)])
        assert np.array_equal(single.distribution.probs, via_batch.distribution.probs)
        assert single.n_iterations == via_batch.n_iterations

    def test_mixed_kernels_grouped_and_ordered(self):
        """Heterogeneous problems come back in input order, grouped internally."""
        rng = np.random.default_rng(3)
        part_a = Partition.uniform(0.0, 1.0, 10)
        part_b = Partition.uniform(-1.0, 1.0, 14)
        noise_a = UniformRandomizer(half_width=0.2)
        noise_b = GaussianRandomizer(sigma=0.3)
        problems = [
            (noise_a.randomize(rng.uniform(0.2, 0.8, 1000), seed=1), part_a, noise_a),
            (noise_b.randomize(rng.uniform(-0.5, 0.5, 900), seed=2), part_b, noise_b),
            (noise_a.randomize(rng.uniform(0.1, 0.5, 800), seed=3), part_a, noise_a),
        ]
        engine = ReconstructionEngine()
        results = engine.reconstruct_batch(problems)
        assert engine.kernel_cache.misses == 2  # two distinct kernels
        for problem, result in zip(problems, results):
            expected = engine.reconstruct(*problem)
            assert np.array_equal(
                result.distribution.probs, expected.distribution.probs
            )
            assert result.distribution.partition is problem[1]

    def test_accepts_reconstruction_problem_namedtuples(self):
        rng = np.random.default_rng(4)
        part = Partition.uniform(0.0, 1.0, 10)
        noise = UniformRandomizer(half_width=0.2)
        problem = ReconstructionProblem(
            noise.randomize(rng.uniform(0, 1, 500), seed=5), part, noise
        )
        [result] = ReconstructionEngine().reconstruct_batch([problem])
        assert result.distribution.n_intervals == 10


class TestBatchBehaviour:
    def test_convergence_warning_per_problem(self):
        rng = np.random.default_rng(6)
        part = Partition.uniform(0.0, 1.0, 12)
        noise = UniformRandomizer(half_width=0.25)
        config = EngineConfig(stopping="delta", tol=1e-15, max_iterations=3)
        problems = [
            (noise.randomize(rng.uniform(0.2, 0.8, 1000), seed=s), part, noise)
            for s in (1, 2)
        ]
        engine = ReconstructionEngine(config)
        with pytest.warns(ConvergenceWarning) as record:
            results = engine.reconstruct_batch(problems)
        assert len(record) == 2
        assert all(not r.converged for r in results)
        assert all(r.n_iterations == 3 for r in results)

    def test_empty_problem_rejected(self):
        part = Partition.uniform(0.0, 1.0, 10)
        noise = UniformRandomizer(half_width=0.2)
        with pytest.raises(ValidationError):
            ReconstructionEngine().reconstruct_batch([(np.array([]), part, noise)])

    def test_empty_batch_is_noop(self):
        assert ReconstructionEngine().reconstruct_batch([]) == []

    def test_run_bayes_batch_validates_shapes(self):
        kernel = np.eye(4)
        with pytest.raises(ValidationError):
            _run_bayes_batch(
                np.ones(4),  # not 2-D
                kernel,
                np.full((1, 4), 0.25),
                max_iterations=5,
                tol=1e-3,
                stopping="delta",
            )
        with pytest.raises(ValidationError):
            _run_bayes_batch(
                np.ones((1, 3)),  # S mismatch
                kernel,
                np.full((1, 4), 0.25),
                max_iterations=5,
                tol=1e-3,
                stopping="delta",
            )
        with pytest.raises(ValidationError):
            _run_bayes_batch(
                np.ones((2, 4)),
                kernel,
                np.full((1, 4), 0.25),  # B mismatch
                max_iterations=5,
                tol=1e-3,
                stopping="delta",
            )
        with pytest.raises(ValidationError):
            _run_bayes_batch(
                np.zeros((1, 4)),  # empty problem
                kernel,
                np.full((1, 4), 0.25),
                max_iterations=5,
                tol=1e-3,
                stopping="delta",
            )

    def test_problems_converge_at_different_sweeps(self):
        """Per-problem masking: a tight and a loose problem stop independently."""
        rng = np.random.default_rng(8)
        part = Partition.uniform(0.0, 1.0, 16)
        noise = UniformRandomizer(half_width=0.25)
        config = EngineConfig(stopping="delta", tol=1e-3, max_iterations=1000)
        narrow = np.clip(rng.normal(0.5, 0.02, 4000), 0, 1)
        broad = rng.uniform(0.0, 1.0, 4000)
        engine = ReconstructionEngine(config)
        results = engine.reconstruct_batch(
            [
                (noise.randomize(narrow, seed=1), part, noise),
                (noise.randomize(broad, seed=2), part, noise),
            ]
        )
        assert results[0].n_iterations != results[1].n_iterations
        assert all(r.converged for r in results)

    def test_reconstructor_shares_kernel_across_calls(self):
        """The Local strategy's repeated refits reuse one cached kernel."""
        rng = np.random.default_rng(9)
        part = Partition.uniform(0.0, 1.0, 10)
        noise = UniformRandomizer(half_width=0.2)
        rec = BayesReconstructor()
        for s in range(4):
            rec.reconstruct(
                noise.randomize(rng.uniform(0, 1, 400), seed=s), part, noise
            )
        assert rec.engine.kernel_cache.misses == 1
        assert rec.engine.kernel_cache.hits == 3

    def test_rejects_non_config(self):
        with pytest.raises(ValidationError):
            ReconstructionEngine(config={"max_iterations": 5})


class TestChi2Threshold:
    """The stopping test's critical value is bitwise ``scipy.stats.chi2.ppf``.

    The engine reads it from a table of SciPy's own values for dof 1 to
    512 and calls ``scipy.special`` past that, so reconstructing never
    loads ``scipy.stats``.  These tests pin both against the installed
    SciPy.  A mismatch on another SciPy release is a finding about that
    release (its thresholds, and so its stopping decisions, would move),
    not a reason to regenerate the table.
    """

    MAX_DOF = 2000

    @staticmethod
    def _threshold(dof: int) -> float:
        # dof + 1 equal cells, each expecting 10 >= 5, so nothing is pooled
        counts = np.full(dof + 1, 10.0)
        return _chi2_fit(counts, counts)[1]

    def test_uncached_matches_scipy_stats(self):
        dofs = range(1, self.MAX_DOF + 1)
        ours = [self._threshold(dof) for dof in dofs]
        theirs = [float(stats.chi2.ppf(0.95, dof)) for dof in dofs]
        assert np.array_equal(ours, theirs)

    def test_table_is_scipy_stats_bit_for_bit(self):
        assert len(CHI2_95) == 512
        for dof, value in enumerate(CHI2_95, start=1):
            expected = float(stats.chi2.ppf(0.95, dof))
            assert type(value) is float and value.hex() == expected.hex(), (
                f"scipy {scipy.__version__}: the table's entry for dof {dof} "
                f"is {value!r}, scipy.stats.chi2.ppf gives {expected!r}"
            )
