"""Benchmark execution: contexts, measurement, and the parallel runner.

The runner turns registered experiments (:mod:`repro.bench.registry`)
into ``BENCH_<id>.json`` artifacts (:mod:`repro.bench.artifacts`):

* each experiment body receives an :class:`ExperimentContext` carrying
  its seed and scale and collecting params + ASCII tables,
* wall clock and peak RSS are captured around the body,
* ``jobs > 1`` fans independent experiments out over a process pool —
  results are returned in id order and, because every experiment's seed
  is derived from ``(base seed, experiment id)`` alone, are
  bit-identical to a serial run.

Peak RSS is the *process* high-water mark (``ru_maxrss``): exact per
experiment in pool mode (one fresh process per concurrent experiment),
an upper bound in serial mode where experiments share the process.

Every process that runs bodies imports :mod:`scipy.special` before it
times any of them: the serial runner before its loop, each pool worker
in its initializer.  Otherwise whichever experiment first needed a
Gaussian kernel would be charged SciPy's ~0.3 s import.  Every
``peak_rss_kb`` therefore includes SciPy's ~20 MB.  The import happens
at run time, so importing this module (or ``repro.cli``) loads no SciPy.
"""

from __future__ import annotations

import resource
import sys
import time
import traceback
import zlib
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.bench.artifacts import (
    BenchArtifact,
    check_metrics,
    check_timing,
    host_info,
    write_artifact,
)
from repro.bench.registry import REGISTRY, discover
from repro.exceptions import BenchmarkError

__all__ = [
    "ExperimentContext",
    "derive_seed",
    "run_experiments",
]


def derive_seed(base_seed: int, experiment_id: str) -> int:
    """Deterministic per-experiment seed, stable across processes.

    A stable hash (CRC32, not Python's randomized ``hash``) of the base
    seed and the experiment id, so a pool worker and a serial run derive
    the same seed and experiments never share RNG streams.
    """
    return zlib.crc32(f"{base_seed}:{experiment_id}".encode()) % (2**31)


class ExperimentContext:
    """Per-run services handed to every experiment body.

    Attributes
    ----------
    experiment_id / seed:
        Identity and the seed this run must derive all randomness from.
    params:
        Parameters the body declared via :meth:`record`; stored in the
        artifact so a metric is never read without its workload.
    tables:
        ASCII tables the body rendered via :meth:`report`, keyed by
        table name.
    timings:
        Extra *volatile* measurements declared via :meth:`record_timing`
        (e.g. a measured speedup); merged into the artifact's ``timing``
        section, which the comparator never matches exactly: it checks
        these keys only against the experiment's declared floors.
    """

    def __init__(
        self,
        experiment_id: str,
        seed: int,
        *,
        results_dir=None,
        verbose: bool = False,
    ) -> None:
        self.experiment_id = experiment_id
        self.seed = int(seed)
        self.results_dir = Path(results_dir) if results_dir is not None else None
        self.verbose = verbose
        self.params: dict = {}
        self.tables: dict = {}
        self.timings: dict = {}

    def scaled(self, n: int) -> int:
        """Apply the ambient benchmark scale to a base dataset size."""
        from repro.experiments.config import scaled

        return scaled(n)

    def record(self, **params) -> None:
        """Attach workload parameters to the run's artifact.

        Validated to JSON scalars immediately, so a stray numpy value
        fails inside the offending experiment (a ``failed`` artifact)
        rather than at serialization time after the whole sweep ran.
        """
        self.params.update(check_metrics(params, label="params"))

    def record_timing(self, **timings) -> None:
        """Attach volatile numeric measurements (never compared exactly)."""
        self.timings.update(check_timing(timings, label="timings"))

    def report(self, text: str, *, name: str = None) -> None:
        """Render one ASCII table: collect, optionally print and persist.

        ``name`` defaults to the experiment id and becomes the
        ``benchmarks/results/<name>.txt`` filename — the same text the
        pre-registry scripts wrote, now derived from the run that also
        produces the JSON artifact.
        """
        name = name or self.experiment_id
        self.tables[name] = text
        if self.verbose:
            print(f"\n=== {name} ===\n{text}\n")
        if self.results_dir is not None:
            self.results_dir.mkdir(parents=True, exist_ok=True)
            (self.results_dir / f"{name}.txt").write_text(text + "\n")


def _peak_rss_kb() -> int:
    """Process peak RSS in kilobytes (``ru_maxrss`` is bytes on macOS)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux container
        peak //= 1024
    return int(peak)


def _import_scipy() -> None:
    """Pay SciPy's one-time import before any experiment is timed."""
    import scipy.special  # noqa: F401


def _execute(spec, *, seed, results_dir, verbose) -> BenchArtifact:
    """Run one experiment body under measurement, never raising.

    A failing body (assertion or error) yields a ``status="failed"``
    artifact carrying the traceback tail, so one broken experiment
    cannot take down a whole sweep; the CLI turns any failure into a
    nonzero exit.
    """
    from repro.experiments.config import bench_scale

    ctx = ExperimentContext(
        spec.id, seed, results_dir=results_dir, verbose=verbose
    )
    status, error, metrics = "ok", "", {}
    start = time.perf_counter()
    try:
        metrics = check_metrics(spec.fn(ctx) or {})
    except Exception:
        status = "failed"
        error = traceback.format_exc(limit=8)
    wall = time.perf_counter() - start
    return BenchArtifact(
        experiment_id=spec.id,
        title=spec.title,
        tags=spec.tags,
        seed=ctx.seed,
        scale=bench_scale(),
        params=ctx.params,
        metrics=metrics,
        timing={
            "wall_seconds": wall,
            "peak_rss_kb": _peak_rss_kb(),
            **ctx.timings,
        },
        host=host_info(),
        status=status,
        error=error,
    )


def _pool_run(task) -> dict:
    """Pool worker: re-discover (no-op under fork), run, ship a dict."""
    benchmarks_dir, experiment_id, seed, scale, results_dir, verbose = task
    from repro.experiments.config import scale_override

    discover(benchmarks_dir)
    spec = REGISTRY.get(experiment_id)
    with scale_override(scale):
        artifact = _execute(
            spec, seed=seed, results_dir=results_dir, verbose=verbose
        )
    return artifact.to_dict()


def run_experiments(
    *,
    ids=None,
    tags=None,
    jobs: int = 1,
    artifacts_dir,
    benchmarks_dir=None,
    results_dir=None,
    base_seed: int = None,
    scale: float = None,
    verbose: bool = False,
) -> list:
    """Execute selected experiments and write one artifact per id.

    Parameters
    ----------
    ids / tags:
        Selection forwarded to
        :meth:`~repro.bench.registry.ExperimentRegistry.select`.
    jobs:
        Process-pool width; ``1`` runs in-process.  Experiments are
        independent by contract, and per-experiment seeds depend only on
        ``(base_seed, id)``, so the artifacts' deterministic sections are
        identical for any ``jobs``.
    artifacts_dir:
        Where ``BENCH_<id>.json`` documents land (created if needed).
    results_dir:
        Where ASCII tables land; ``None`` keeps tables in memory only.
    base_seed:
        ``None`` (default) runs every experiment on its canonical
        registered seed — reproducing the committed reference numbers —
        while an explicit value derives per-experiment seeds via
        :func:`derive_seed`.
    scale:
        Optional dataset-size multiplier overriding ``PPDM_BENCH_SCALE``.

    Returns the artifacts in id order.
    """
    from repro.experiments.config import bench_scale, scale_override

    if jobs < 1:
        raise BenchmarkError(f"jobs must be >= 1, got {jobs}")
    # Surface a bad --scale or PPDM_BENCH_SCALE here, as one clean error,
    # rather than letting every experiment fail on it mid-measurement
    # (nothing mutates them between this probe and the runs).
    with scale_override(scale):
        bench_scale()
    discover(benchmarks_dir)
    specs = REGISTRY.select(ids=ids, tags=tags)
    if not specs:
        raise BenchmarkError("selection matched no experiments")

    seeds = {
        spec.id: spec.seed if base_seed is None else derive_seed(base_seed, spec.id)
        for spec in specs
    }
    artifacts = []
    if jobs == 1 or len(specs) == 1:
        _import_scipy()
        with scale_override(scale):
            for spec in specs:
                artifact = _execute(
                    spec,
                    seed=seeds[spec.id],
                    results_dir=results_dir,
                    verbose=verbose,
                )
                # write as completed: a crash later in the sweep cannot
                # take already-measured artifacts down with it
                write_artifact(artifact, artifacts_dir)
                artifacts.append(artifact)
    else:
        benchmarks_dir_str = str(benchmarks_dir) if benchmarks_dir else None
        results_dir_str = str(results_dir) if results_dir else None
        tasks = [
            (
                benchmarks_dir_str,
                spec.id,
                seeds[spec.id],
                scale,
                results_dir_str,
                verbose,
            )
            for spec in specs
        ]
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(specs)), initializer=_import_scipy
        ) as pool:
            # map() preserves submission order, so artifacts come back in
            # id order no matter which worker finishes first.
            for doc in pool.map(_pool_run, tasks):
                artifact = BenchArtifact.from_dict(doc)
                write_artifact(artifact, artifacts_dir)
                artifacts.append(artifact)
    return artifacts
