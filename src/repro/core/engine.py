"""Batched reconstruction engine with kernel caching.

The paper's reconstruction (§3.2) is an ``O(m^2)`` matrix iteration, but
the training pipelines run *many* of them: the ByClass algorithm solves
one problem per attribute × class, the Local algorithm repeats that at
every tree node, and the streaming collector refreshes its estimate over
and over.  Most of those problems share the same discretized noise kernel
— same partition, same randomizer, same transition method — yet the naive
path rebuilds it and runs every problem through its own Python-level
sweep loop.

This module is the production-scale substrate behind those callers:

* :class:`EngineConfig` — the shared, validated iteration settings that
  :class:`~repro.core.reconstruction.BayesReconstructor` and
  :class:`~repro.core.streaming.StreamingReconstructor` both delegate to,
* :class:`KernelCache` — an LRU cache of discretized noise kernels keyed
  on partition edges + randomizer parameters + transition method, so an
  identical kernel is computed once per fit instead of once per problem,
* :func:`_run_bayes_batch` — the vectorized Bayes sweep over a ``(B, S)``
  stack of reconstruction problems sharing one kernel, with per-problem
  convergence masking and per-problem chi²/delta stopping,
* :class:`ReconstructionEngine` — the facade that groups heterogeneous
  problems by kernel and dispatches them batched,
* :func:`run_bayes_reference` — the public looped reference path (no
  cache, no batching) the batched sweeps are held bit-identical to.

Bit-identity contract
---------------------
The batched sweep produces **bit-identical** results to running
:func:`~repro.core.reconstruction._run_bayes` once per problem: the two
matrix products of each sweep are issued per problem with exactly the
shapes the looped path uses (BLAS gemm and gemv round differently, so a
single stacked matmul would *not* be bitwise reproducible), while all
element-wise work, reductions, and stopping decisions are batched.  The
speedup comes from the kernel cache and from running each sweep's
normalization, sort and gather once for the whole batch instead of once
per problem — not from changing any float operation.

Chi-squared critical values
---------------------------
The stopping test's 95 % critical value is bitwise
``scipy.stats.chi2.ppf(0.95, dof)``.  The batched sweep and the looped
reference path both read it from one table of SciPy's own values for
dof 1 to 512 (:mod:`repro.core._chi2_table`).  Every current grid stays
inside it (the experiments peak at dof 350), so a uniform-noise server,
coordinator or ``ppdm`` command loads no SciPy.  Past the table, the
value comes from the ``scipy.special.gammaincinv`` call that
``scipy.stats`` makes, and :mod:`scipy.special` is imported at the first
such threshold.  The library never imports :mod:`scipy.stats`.
"""

from __future__ import annotations

import dataclasses
import inspect
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core._chi2_table import CHI2_95
from repro.core.histogram import HistogramDistribution
from repro.core.partition import Partition
from repro.core.randomizers import AdditiveRandomizer, transition_matrix
from repro.exceptions import ConvergenceWarning, ValidationError
from repro.utils.validation import check_1d_array, check_fraction, check_positive

#: smallest admissible mixture weight during iteration (guards 0/0)
_EPS = 1e-300


# ----------------------------------------------------------------------
# Shared result / configuration types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of a distribution reconstruction.

    Attributes
    ----------
    distribution:
        Estimated distribution of the *original* values on the requested
        partition.
    n_iterations:
        Number of Bayes sweeps performed.
    converged:
        ``False`` when iteration stopped on the iteration cap instead of
        the tolerance / chi-squared criterion.
    chi2_statistic / chi2_threshold:
        Final goodness-of-fit statistic of the observed randomized
        histogram against the randomization of the estimate, and the 95 %
        critical value it is compared to (``nan`` when not computed).
    delta_history:
        L1 change of the estimate at each sweep (diagnostic).

    Examples
    --------
    >>> from repro.core import BayesReconstructor, Partition, UniformRandomizer
    >>> noise = UniformRandomizer(half_width=0.3)
    >>> w = noise.randomize([0.5] * 2000, seed=0)
    >>> result = BayesReconstructor().reconstruct(
    ...     w, Partition.uniform(0, 1, 5), noise
    ... )
    >>> bool(result.converged)
    True
    >>> round(float(result.distribution.probs.sum()), 9)
    1.0
    """

    distribution: HistogramDistribution
    n_iterations: int
    converged: bool
    chi2_statistic: float = float("nan")
    chi2_threshold: float = float("nan")
    delta_history: tuple = field(default=())


@dataclass(frozen=True)
class EngineConfig:
    """Validated iteration settings shared by every reconstruction front-end.

    One place holds the constraints that used to be duplicated (and
    partially forgotten) across the batch and streaming reconstructors:

    * ``max_iterations >= 1``,
    * ``tol > 0``,
    * ``stopping`` in ``{"delta", "chi2"}``,
    * ``transition_method`` in ``{"density", "integrated"}``,
    * ``coverage`` a fraction in ``(0, 1]``.

    Examples
    --------
    >>> from repro.core import EngineConfig
    >>> config = EngineConfig(max_iterations=100, stopping="delta")
    >>> config.tol
    0.001
    >>> EngineConfig(stopping="sometimes")
    Traceback (most recent call last):
        ...
    repro.exceptions.ValidationError: stopping must be 'delta' or 'chi2', got 'sometimes'
    """

    max_iterations: int = 500
    tol: float = 1e-3
    stopping: str = "chi2"
    transition_method: str = "integrated"
    coverage: float = 1.0 - 1e-9

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValidationError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        check_positive(self.tol, "tol")
        if self.stopping not in ("delta", "chi2"):
            raise ValidationError(
                f"stopping must be 'delta' or 'chi2', got {self.stopping!r}"
            )
        if self.transition_method not in ("density", "integrated"):
            raise ValidationError(
                f"transition_method must be 'density' or 'integrated', "
                f"got {self.transition_method!r}"
            )
        check_fraction(self.coverage, "coverage")
        object.__setattr__(self, "max_iterations", int(self.max_iterations))
        object.__setattr__(self, "tol", float(self.tol))
        object.__setattr__(self, "coverage", float(self.coverage))


def config_property(field: str, *, engine_attr: str = "engine") -> property:
    """A live property delegating to the owner's engine configuration.

    Reading returns the current :class:`EngineConfig` value; assigning
    replaces the engine's config via :func:`dataclasses.replace`, which
    re-runs validation.  Shared by the reconstructor front-ends so the
    proxy surface cannot drift between them (a plain attribute mirror
    would be silently ignored by the engine).
    """

    def fget(self):
        return getattr(getattr(self, engine_attr).config, field)

    def fset(self, value):
        engine = getattr(self, engine_attr)
        engine.config = dataclasses.replace(engine.config, **{field: value})

    return property(
        fget,
        fset,
        doc=f"Live view of ``EngineConfig.{field}``; assignment re-validates "
        "and takes effect on the next reconstruction.",
    )


class ReconstructionProblem(NamedTuple):
    """One reconstruction problem for :meth:`ReconstructionEngine.reconstruct_batch`.

    Examples
    --------
    >>> from repro.core import Partition, ReconstructionProblem, UniformRandomizer
    >>> problem = ReconstructionProblem(
    ...     [0.2, 0.8], Partition.uniform(0, 1, 4), UniformRandomizer(half_width=0.1)
    ... )
    >>> problem.x_partition.n_intervals
    4
    """

    randomized_values: np.ndarray
    x_partition: Partition
    randomizer: AdditiveRandomizer


# ----------------------------------------------------------------------
# Kernel cache
# ----------------------------------------------------------------------
class KernelCache:
    """LRU cache of discretized noise kernels (and their y-grids).

    Keys combine the partition's edge values, the randomizer (our
    randomizers are frozen dataclasses, so equal parameters hash equal),
    the transition method, and the coverage.  Randomizers without value
    equality (no ``__eq__`` of their own, or unhashable) cannot be keyed
    reliably — identity-based keys would serve stale kernels after a
    parameter mutation — so they bypass the cache and are recomputed
    each time.

    Cached kernels are returned with ``writeable=False`` so a caller
    cannot silently corrupt every later hit.

    Parameters
    ----------
    maxsize:
        Entries kept before least-recently-used eviction (0 disables
        storage; lookups then always recompute).

    Examples
    --------
    >>> from repro.core import KernelCache, Partition, UniformRandomizer
    >>> cache = KernelCache(maxsize=8)
    >>> part = Partition.uniform(0, 1, 6)
    >>> noise = UniformRandomizer(half_width=0.2)
    >>> y_part, kernel = cache.get(part, noise, method="integrated", coverage=1.0)
    >>> _ = cache.get(part, noise, method="integrated", coverage=1.0)
    >>> cache.hits, cache.misses
    (1, 1)
    """

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize < 0:
            raise ValidationError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = int(maxsize)
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(
        x_partition: Partition,
        randomizer: AdditiveRandomizer,
        method: str,
        coverage: float,
    ):
        """Cache key for a kernel, or ``None`` when the randomizer is unkeyable.

        A randomizer is keyable only when its class defines value equality
        (a frozen dataclass, a NamedTuple, ...).  Default object identity
        would keep matching after an in-place parameter mutation and serve
        a kernel built for the old parameters.
        """
        if type(randomizer).__eq__ is object.__eq__:
            return None
        try:
            hash(randomizer)
        except TypeError:
            return None
        return (x_partition.edges.tobytes(), randomizer, method, float(coverage))

    def get(
        self,
        x_partition: Partition,
        randomizer: AdditiveRandomizer,
        *,
        method: str,
        coverage: float,
    ) -> tuple:
        """Return ``(y_partition, kernel)``, computing and caching on miss."""
        key = self.key_for(x_partition, randomizer, method, coverage)
        if key is not None:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry
        self.misses += 1
        margin = randomizer.support_half_width(coverage)
        y_partition = x_partition.expanded(margin)
        kernel = transition_matrix(
            y_partition, x_partition, randomizer, method=method
        )
        kernel.setflags(write=False)
        entry = (y_partition, kernel)
        if key is not None and self.maxsize > 0:
            self._entries[key] = entry
            if len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return entry

    def clear(self) -> None:
        """Drop all cached kernels and reset hit/miss counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KernelCache(size={len(self)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )


# ----------------------------------------------------------------------
# Chi-squared goodness of fit
# ----------------------------------------------------------------------
def _chi2_fit(y_counts: np.ndarray, expected: np.ndarray) -> tuple[float, float]:
    """Chi-squared statistic of observed vs expected interval counts.

    Intervals with tiny expectation are pooled into their neighbours
    (classic rule of thumb: expected >= 5) so the statistic is stable.

    The 95 % critical value is bitwise ``scipy.stats.chi2.ppf(0.95,
    dof)``: a table lookup for dof up to 512, SciPy's
    ``scipy.special.gammaincinv`` call beyond that (see the module
    docstring).
    """
    expected = expected / max(expected.sum(), _EPS) * y_counts.sum()
    order = np.argsort(-expected, kind="stable")
    obs_sorted, exp_sorted = y_counts[order], expected[order]
    # exp_sorted is descending, so the kept cells are a prefix: slice
    # instead of boolean-masking (same elements, same order, same bits).
    n_keep = int((exp_sorted >= 5.0).sum())
    if n_keep == 0:
        return float("nan"), float("nan")
    obs_main, exp_main = obs_sorted[:n_keep], exp_sorted[:n_keep]
    # Pool everything below the threshold into one pseudo-cell.
    obs_rest, exp_rest = obs_sorted[n_keep:].sum(), exp_sorted[n_keep:].sum()
    if exp_rest > 0:
        obs_main = np.concatenate((obs_main, (obs_rest,)))
        exp_main = np.concatenate((exp_main, (exp_rest,)))
    return _chi2_statistic(obs_main, exp_main)


def _chi2_statistic(obs_main: np.ndarray, exp_main: np.ndarray) -> tuple[float, float]:
    """Statistic + 95 % critical value for pooled cells.

    Shared tail of :func:`_chi2_fit` and :func:`_chi2_fit_batch` — the
    bit-identity contract requires the two to agree exactly, so the
    arithmetic lives once.
    """
    statistic = float(((obs_main - exp_main) ** 2 / exp_main).sum())
    dof = max(obs_main.size - 1, 1)
    if dof <= len(CHI2_95):
        return statistic, CHI2_95[dof - 1]
    # Past the table: imported here, not at module scope, so only a
    # process that reaches such a grid loads SciPy.
    from scipy import special

    # Bitwise scipy.stats.chi2.ppf(0.95, dof): the call it makes.
    return statistic, float(2 * special.gammaincinv(dof / 2, 0.95))


def _chi2_fit_batch(
    y_counts: np.ndarray, expected: np.ndarray, totals: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`_chi2_fit` over a ``(B, S)`` stack of problems.

    The cross-problem steps (normalization, descending sort, reorder) run
    as single array operations; the ragged pooling tail stays per row.
    Every row's statistic and threshold are bitwise what :func:`_chi2_fit`
    returns for that row alone.
    """
    norm = (
        expected
        / np.maximum(expected.sum(axis=1), _EPS)[:, None]
        * totals[:, None]
    )
    order = np.argsort(-norm, axis=1, kind="stable")
    # The gather np.take_along_axis does, without its per-call overhead
    # (this runs once per sweep).
    rows = np.arange(totals.size)[:, None]
    obs_sorted = y_counts[rows, order]
    exp_sorted = norm[rows, order]
    keep_counts = (exp_sorted >= 5.0).sum(axis=1)

    statistics = np.full(totals.size, float("nan"))
    thresholds = np.full(totals.size, float("nan"))
    for i in range(totals.size):
        n_keep = int(keep_counts[i])
        if n_keep == 0:
            continue
        obs_main, exp_main = obs_sorted[i, :n_keep], exp_sorted[i, :n_keep]
        obs_rest, exp_rest = obs_sorted[i, n_keep:].sum(), exp_sorted[i, n_keep:].sum()
        if exp_rest > 0:
            obs_main = np.concatenate((obs_main, (obs_rest,)))
            exp_main = np.concatenate((exp_main, (exp_rest,)))
        statistics[i], thresholds[i] = _chi2_statistic(obs_main, exp_main)
    return statistics, thresholds


def _prepare(
    randomized_values,
    x_partition: Partition,
    randomizer: AdditiveRandomizer,
    *,
    transition_method: str,
    coverage: float,
):
    """Shared setup: bucket the randomized values and build the noise kernel.

    Returns ``(y_counts, kernel)`` where ``kernel[s, p]`` is
    ``P(Y in I_s | X = midpoint_p)`` — also used by the EM reconstructor.
    """
    w = check_1d_array(randomized_values, "randomized_values")
    margin = randomizer.support_half_width(coverage)
    y_partition = x_partition.expanded(margin)
    y_counts = y_partition.histogram(w).astype(float)
    kernel = transition_matrix(
        y_partition, x_partition, randomizer, method=transition_method
    )
    return y_counts, kernel


# ----------------------------------------------------------------------
# Batched Bayes sweeps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchSweepResult:
    """Per-problem outcome arrays of one :func:`_run_bayes_batch` call."""

    theta: np.ndarray  # (B, P) final estimates
    n_iterations: np.ndarray  # (B,) sweeps each problem ran
    converged: np.ndarray  # (B,) bool
    deltas: tuple  # per-problem tuple of L1 changes
    chi2_statistic: np.ndarray  # (B,)
    chi2_threshold: np.ndarray  # (B,)


def _run_bayes_batch(
    y_counts: np.ndarray,
    kernel: np.ndarray,
    theta0: np.ndarray,
    *,
    max_iterations: int,
    tol: float,
    stopping: str,
) -> BatchSweepResult:
    """Run Bayes sweeps for ``B`` problems sharing one noise kernel.

    ``y_counts`` is the ``(B, S)`` stack of randomized histograms and
    ``theta0`` the ``(B, P)`` stack of starting estimates (not mutated).
    Each problem stops independently — on its own chi²/delta criterion at
    its own sweep — and converged problems drop out of the active batch so
    late stragglers don't pay for early finishers.

    Every float op matches :func:`~repro.core.reconstruction._run_bayes`
    per problem, so the results are bitwise identical to running the
    looped path ``B`` times (see the module docstring for why the two
    matmuls are issued per problem).
    """
    y_counts = np.asarray(y_counts, dtype=float)
    if y_counts.ndim != 2:
        raise ValidationError(
            f"y_counts must be 2-dimensional (B, S), got shape {y_counts.shape}"
        )
    n_problems, n_y = y_counts.shape
    if kernel.shape[0] != n_y:
        raise ValidationError(
            f"kernel has {kernel.shape[0]} rows but y_counts has {n_y} columns"
        )
    n_x = kernel.shape[1]
    theta = np.array(theta0, dtype=float)
    if theta.shape != (n_problems, n_x):
        raise ValidationError(
            f"theta0 must have shape ({n_problems}, {n_x}), got {theta.shape}"
        )
    n = y_counts.sum(axis=1)
    if np.any(n <= 0):
        raise ValidationError("every problem needs at least one randomized value")
    # The looped path divides y_counts by n on every sweep; the quotient
    # never changes, so hoist it (bitwise the same values).
    ybar = y_counts / n[:, None]

    deltas: list = [[] for _ in range(n_problems)]
    converged = np.zeros(n_problems, dtype=bool)
    iterations = np.zeros(n_problems, dtype=np.int64)
    chi2_stat = np.full(n_problems, float("nan"))
    chi2_thresh = np.full(n_problems, float("nan"))
    previous_chi2 = np.full(n_problems, float("inf"))
    active = np.arange(n_problems)

    # Active working set: these arrays shrink as problems converge, so a
    # round touches only live problems and the full-size arrays are only
    # written at stop events.
    th = theta  # (Ba, P) current estimates of the active problems
    ybar_act, y_counts_act, n_act = ybar, y_counts, n
    # In chi2 mode the looped path evaluates ``kernel @ theta`` twice per
    # sweep on the same theta: once for the goodness-of-fit expectation
    # and once as the next sweep's mixture.  The batch computes that gemv
    # once and carries it into the next round (same call, same row, same
    # bits), so chi2 stopping costs two matmuls per sweep, not three.
    carried_mixture = None
    for iteration in range(1, max_iterations + 1):
        if carried_mixture is None:
            mixture = np.empty((active.size, n_y))
            for i in range(active.size):
                # Per-problem gemv: bitwise identical to the looped path
                # (a stacked gemm rounds differently — see module docstring).
                mixture[i] = kernel @ th[i]
        else:
            mixture = carried_mixture
        safe_mixture = np.maximum(mixture, _EPS)
        # Posterior responsibility of x-interval p for y-interval s,
        # weighted by observed counts, averaged over each sample.
        weights = ybar_act / safe_mixture  # (Ba, S)
        update = np.empty((active.size, n_x))
        for i in range(active.size):
            update[i] = kernel.T @ weights[i]
        theta_new = th * update  # (Ba, P)
        total = theta_new.sum(axis=1)
        if total.min() <= 0:
            raise ValidationError(
                "reconstruction collapsed to zero mass; the noise kernel "
                "does not cover the observed randomized values"
            )
        theta_new /= total[:, None]
        delta = np.abs(theta_new - th).sum(axis=1)

        stop = np.zeros(active.size, dtype=bool)
        new_mixture = None
        if stopping == "chi2":
            new_mixture = np.empty((active.size, n_y))
            for i in range(active.size):
                new_mixture[i] = kernel @ theta_new[i]
            stat_row, thresh_row = _chi2_fit_batch(
                y_counts_act, new_mixture * n_act[:, None], n_act
            )
        for i, b in enumerate(active):
            deltas[b].append(float(delta[i]))
            if stopping == "chi2":
                stat, thresh = stat_row[i], thresh_row[i]
                chi2_stat[b], chi2_thresh[b] = stat, thresh
                if np.isfinite(stat):
                    # Stop when the randomized data are statistically
                    # consistent with the estimate, OR when further
                    # sharpening has stopped improving the fit (the model
                    # is binned, so the test may never pass outright;
                    # iterating past the plateau only overfits noise).
                    passed = stat <= thresh
                    plateaued = (previous_chi2[b] - stat) < 0.01 * thresh
                    if passed or plateaued:
                        converged[b] = True
                        stop[i] = True
                        continue
                    previous_chi2[b] = stat
            if delta[i] < tol:
                converged[b] = True
                stop[i] = True

        if stop.any():
            for i in np.flatnonzero(stop):
                b = active[i]
                theta[b] = theta_new[i]
                iterations[b] = iteration
            keep = ~stop
            active = active[keep]
            if active.size == 0:
                break
            th = theta_new[keep]
            ybar_act = ybar_act[keep]
            y_counts_act = y_counts_act[keep]
            n_act = n_act[keep]
            carried_mixture = None if new_mixture is None else new_mixture[keep]
        else:
            th = theta_new
            carried_mixture = new_mixture

    if active.size:
        # Problems that hit the iteration cap: flush their working rows.
        for i, b in enumerate(active):
            theta[b] = th[i]
            iterations[b] = max_iterations

    if stopping != "chi2":
        for b in range(n_problems):
            chi2_stat[b], chi2_thresh[b] = _chi2_fit(
                y_counts[b], kernel @ theta[b] * n[b]
            )
    return BatchSweepResult(
        theta=theta,
        n_iterations=iterations,
        converged=converged,
        deltas=tuple(tuple(d) for d in deltas),
        chi2_statistic=chi2_stat,
        chi2_threshold=chi2_thresh,
    )


# ----------------------------------------------------------------------
# Engine facade
# ----------------------------------------------------------------------
class ReconstructionEngine:
    """Batched, kernel-cached dispatcher for reconstruction problems.

    The engine owns an :class:`EngineConfig` and a :class:`KernelCache`;
    chi-squared critical values come from one table, which the looped
    reference path reads too.  Heterogeneous problems handed to
    :meth:`reconstruct_batch` are grouped by their (cached) kernel and
    each group runs as one call to :func:`_run_bayes_batch`.

    Parameters
    ----------
    config:
        Iteration settings; defaults to :class:`EngineConfig` defaults.
    kernel_cache:
        Share one cache between engines (e.g. several streaming
        reconstructors over the same grid); defaults to a private cache.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import Partition, UniformRandomizer
    >>> from repro.core.engine import ReconstructionEngine
    >>> rng = np.random.default_rng(0)
    >>> noise = UniformRandomizer(half_width=0.25)
    >>> part = Partition.uniform(0.0, 1.0, 20)
    >>> problems = [
    ...     (noise.randomize(rng.uniform(0.2, 0.8, 3000), seed=s), part, noise)
    ...     for s in (1, 2, 3)
    ... ]
    >>> engine = ReconstructionEngine()
    >>> results = engine.reconstruct_batch(problems)
    >>> len(results), engine.kernel_cache.misses
    (3, 1)
    """

    def __init__(
        self, config: EngineConfig | None = None, *, kernel_cache: KernelCache = None
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        if not isinstance(self.config, EngineConfig):
            raise ValidationError(
                f"config must be an EngineConfig, got {type(self.config).__name__}"
            )
        self.kernel_cache = kernel_cache if kernel_cache is not None else KernelCache()

    # ------------------------------------------------------------------
    def kernel_for(
        self, x_partition: Partition, randomizer: AdditiveRandomizer
    ) -> tuple:
        """Cached ``(y_partition, kernel)`` for one partition/randomizer pair."""
        return self.kernel_cache.get(
            x_partition,
            randomizer,
            method=self.config.transition_method,
            coverage=self.config.coverage,
        )

    def sweep_batch(
        self, y_counts: np.ndarray, kernel: np.ndarray, theta0: np.ndarray
    ) -> BatchSweepResult:
        """Run the configured Bayes sweeps on pre-bucketed problems.

        Low-level entry used by the streaming reconstructor, which owns
        its histogram and warm-start estimate.
        """
        return _run_bayes_batch(
            y_counts,
            kernel,
            theta0,
            max_iterations=self.config.max_iterations,
            tol=self.config.tol,
            stopping=self.config.stopping,
        )

    def result_from_sweep(
        self,
        batch: BatchSweepResult,
        row: int,
        x_partition: Partition,
        *,
        _stacklevel: int = 2,
        warn: bool = True,
    ) -> ReconstructionResult:
        """One problem's :class:`ReconstructionResult` from a sweep batch.

        Emits the engine's :class:`~repro.exceptions.ConvergenceWarning`
        when the problem stopped on the iteration cap — the single place
        that message and the result assembly live, shared by the batch
        facade and the streaming reconstructor.  ``warn=False`` leaves
        the cap-hit visible only on ``result.converged``.
        """
        if warn and not batch.converged[row]:
            warnings.warn(
                f"reconstruction stopped at max_iterations="
                f"{self.config.max_iterations} with last delta "
                f"{batch.deltas[row][-1]:.3g}",
                ConvergenceWarning,
                stacklevel=_stacklevel + 1,
            )
        return ReconstructionResult(
            distribution=HistogramDistribution(x_partition, batch.theta[row]),
            n_iterations=int(batch.n_iterations[row]),
            converged=bool(batch.converged[row]),
            chi2_statistic=float(batch.chi2_statistic[row]),
            chi2_threshold=float(batch.chi2_threshold[row]),
            delta_history=batch.deltas[row],
        )

    def estimate_counts(
        self,
        y_counts: np.ndarray,
        kernel: np.ndarray,
        theta: np.ndarray,
        x_partition: Partition,
        *,
        _stacklevel: int = 2,
        warn: bool = True,
    ) -> tuple:
        """Warm-started reconstruction of one pre-bucketed problem.

        The shared serving path behind
        :meth:`repro.core.streaming.StreamingReconstructor.estimate` and
        :meth:`repro.service.AggregationService.estimate`: both hold a
        running noise-expanded histogram and a carried estimate, and a
        refresh is one sweep batch of size one.

        Parameters
        ----------
        y_counts:
            ``(S,)`` histogram of randomized values on the kernel's
            y-partition.
        kernel:
            The discretized noise kernel (from :meth:`kernel_for`).
        theta:
            ``(P,)`` warm-start estimate (not mutated).
        x_partition:
            Grid the result's distribution is expressed on.

        Returns
        -------
        ``(result, new_theta)`` — the :class:`ReconstructionResult` and
        the final estimate to carry into the next refresh.  With
        ``warn=False`` a cap-hit is reported only through
        ``result.converged`` (for callers — e.g. request handlers —
        where a Python warning is the wrong channel).
        """
        batch = self.sweep_batch(y_counts[None, :], kernel, theta[None, :])
        result = self.result_from_sweep(
            batch, 0, x_partition, _stacklevel=_stacklevel + 1, warn=warn
        )
        return result, batch.theta[0]

    # ------------------------------------------------------------------
    def reconstruct(
        self,
        randomized_values,
        x_partition: Partition,
        randomizer: AdditiveRandomizer,
        *,
        _stacklevel: int = 2,
    ) -> ReconstructionResult:
        """Reconstruct a single problem (a batch of one)."""
        return self.reconstruct_batch(
            [(randomized_values, x_partition, randomizer)],
            _stacklevel=_stacklevel + 1,
        )[0]

    def reconstruct_batch(self, problems, *, _stacklevel: int = 2) -> list:
        """Reconstruct many problems, batching those that share a kernel.

        Parameters
        ----------
        problems:
            Iterable of ``(randomized_values, x_partition, randomizer)``
            triples (or :class:`ReconstructionProblem` instances).
        _stacklevel:
            Frames between any emitted warning and the caller to blame —
            wrappers adding a frame pass their incoming value + 1, so
            :class:`~repro.exceptions.ConvergenceWarning` points at user
            code, not library plumbing.

        Returns
        -------
        list of :class:`ReconstructionResult` in input order.  Problems
        that hit the iteration cap emit the same
        :class:`~repro.exceptions.ConvergenceWarning` the single-problem
        path does.
        """
        problems = [ReconstructionProblem(*p) for p in problems]
        prepared = []  # (w, x_partition, y_partition, kernel) per problem
        groups: OrderedDict = OrderedDict()  # id(kernel) -> [problem indices]
        for idx, problem in enumerate(problems):
            w = check_1d_array(problem.randomized_values, "randomized_values")
            y_partition, kernel = self.kernel_for(
                problem.x_partition, problem.randomizer
            )
            prepared.append((w, problem.x_partition, y_partition, kernel))
            groups.setdefault(id(kernel), []).append(idx)

        results: list = [None] * len(problems)
        for indices in groups.values():
            _, _, y_partition, kernel = prepared[indices[0]]
            y_counts = np.stack(
                [y_partition.histogram(prepared[i][0]).astype(float) for i in indices]
            )
            n_x = kernel.shape[1]
            theta0 = np.full((len(indices), n_x), 1.0 / n_x)
            batch = self.sweep_batch(y_counts, kernel, theta0)
            for row, i in enumerate(indices):
                results[i] = self.result_from_sweep(
                    batch, row, prepared[i][1], _stacklevel=_stacklevel
                )
        return results

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReconstructionEngine(stopping={self.config.stopping!r}, "
            f"cache={self.kernel_cache!r})"
        )


def run_bayes_reference(
    randomized_values,
    x_partition: Partition,
    randomizer: AdditiveRandomizer,
    *,
    config: EngineConfig | None = None,
) -> ReconstructionResult:
    """Solve one problem on the looped (pre-engine) reference path.

    The public hook for holding the batched engine to its bit-identity
    contract: no kernel cache, no batching — the kernel is rebuilt and
    every problem sweeps alone, exactly as the pre-engine code did.  It
    reads its chi-squared critical values from the same table as the
    engine.  Benchmarks (E19) and tests
    compare :class:`ReconstructionEngine` output against this function
    instead of reaching into the underscored internals.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import (
    ...     Partition, ReconstructionEngine, UniformRandomizer,
    ...     run_bayes_reference,
    ... )
    >>> noise = UniformRandomizer(half_width=0.25)
    >>> w = noise.randomize(np.full(3000, 0.5), seed=0)
    >>> part = Partition.uniform(0, 1, 5)
    >>> reference = run_bayes_reference(w, part, noise)
    >>> batched = ReconstructionEngine().reconstruct(w, part, noise)
    >>> bool(np.array_equal(
    ...     reference.distribution.probs, batched.distribution.probs
    ... ))
    True
    """
    from repro.core.reconstruction import _run_bayes

    config = config if config is not None else EngineConfig()
    if not isinstance(config, EngineConfig):
        raise ValidationError(
            f"config must be an EngineConfig, got {type(config).__name__}"
        )
    y_counts, kernel = _prepare(
        randomized_values,
        x_partition,
        randomizer,
        transition_method=config.transition_method,
        coverage=config.coverage,
    )
    m = x_partition.n_intervals
    theta, iters, converged, deltas, chi2_stat, chi2_thresh = _run_bayes(
        y_counts,
        kernel,
        np.full(m, 1.0 / m),
        max_iterations=config.max_iterations,
        tol=config.tol,
        stopping=config.stopping,
    )
    return ReconstructionResult(
        distribution=HistogramDistribution(x_partition, theta),
        n_iterations=iters,
        converged=converged,
        chi2_statistic=chi2_stat,
        chi2_threshold=chi2_thresh,
        delta_history=tuple(deltas),
    )


def reconstruct_problems(reconstructor, problems, *, _stacklevel: int = 2) -> list:
    """Solve ``(values, partition, randomizer)`` problems, batched if possible.

    The shared dispatch used by the tree pipeline and naive Bayes:
    reconstructors exposing ``reconstruct_batch`` (the engine-backed
    default) get all problems in one call — kernels shared, sweeps
    stacked; anything else falls back to the one-at-a-time loop.  The
    ``_stacklevel`` chain is forwarded when the batch method supports it,
    so convergence warnings blame the caller, not this plumbing.
    """
    batch = getattr(reconstructor, "reconstruct_batch", None)
    if batch is not None:
        if _supports_stacklevel(getattr(batch, "__func__", batch)):
            return batch(problems, _stacklevel=_stacklevel + 1)
        return batch(problems)
    return [
        reconstructor.reconstruct(values, partition, randomizer)
        for values, partition, randomizer in problems
    ]


#: memoized signature probes: the Local strategy dispatches once per tree
#: node, and reflecting on the same class method every time is waste
_STACKLEVEL_SUPPORT: dict = {}


def _supports_stacklevel(function) -> bool:
    supported = _STACKLEVEL_SUPPORT.get(function)
    if supported is None:
        try:
            supported = "_stacklevel" in inspect.signature(function).parameters
        except (TypeError, ValueError):  # builtins / odd callables
            supported = False
        _STACKLEVEL_SUPPORT[function] = supported
    return supported
