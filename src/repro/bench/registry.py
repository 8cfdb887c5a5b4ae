"""Declarative experiment registry for the benchmark harness.

Every paper experiment lives in ``benchmarks/bench_e*.py`` as a plain
function decorated with :func:`experiment`:

.. code-block:: python

    @experiment("e20", title="Service throughput", tags=("service", "smoke"),
                seed=7, floors={"speedup_4_shards": 1.0})
    def run_e20(ctx):
        ...
        ctx.record_timing(speedup_4_shards=speedup)
        return {"bit_identical": True}

Importing the module registers the experiment; :func:`discover` imports
every ``bench_e*.py`` under a benchmarks directory in a deterministic
(naturally sorted) order so registry iteration — and therefore runner
scheduling and artifact ordering — never depends on filesystem order.

The registered function takes one argument, an
:class:`~repro.bench.runner.ExperimentContext`, and returns a flat dict
of JSON-scalar metrics; the runner turns that into a schema-versioned
``BENCH_<id>.json`` artifact (:mod:`repro.bench.artifacts`).

Wall-clock expectations are declared, never asserted: ``floors`` maps
keys the body records with ``ctx.record_timing`` to their minimum, and
only ``ppdm bench compare`` (:mod:`repro.bench.compare`) checks them.
The body itself asserts only what is deterministic at a fixed seed.
"""

from __future__ import annotations

import math
import re
import sys
import zlib
from dataclasses import dataclass, field
from importlib import util as importlib_util
from pathlib import Path
from typing import Callable

from repro.bench.artifacts import check_timing
from repro.exceptions import BenchmarkError

__all__ = [
    "Experiment",
    "ExperimentRegistry",
    "REGISTRY",
    "experiment",
    "discover",
    "default_benchmarks_dir",
]

#: file pattern discovered under the benchmarks directory
BENCH_GLOB = "bench_*.py"

_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def _natural_key(text: str) -> tuple:
    """Sort key ordering embedded integers numerically (e2 < e10)."""
    return tuple(
        int(part) if part.isdigit() else part
        for part in re.split(r"(\d+)", text)
    )


def _definition_site(fn: Callable):
    """Where ``fn`` was defined: ``(resolved file, first line, name)``.

    The same benchmark file can legitimately be imported twice under two
    module names — once by pytest (as ``bench_e5_...``) and once by
    :func:`discover` (as ``repro_bench_...``).  The definition site
    identifies the re-registration as the same experiment rather than a
    genuine id collision.
    """
    code = getattr(fn, "__code__", None)
    if code is None:  # pragma: no cover - exotic callables
        return None
    try:
        filename = str(Path(code.co_filename).resolve())
    except OSError:  # pragma: no cover - defensive
        filename = code.co_filename
    return (filename, code.co_firstlineno, getattr(fn, "__name__", ""))


@dataclass(frozen=True)
class Experiment:
    """One registered benchmark experiment.

    Attributes
    ----------
    id:
        Unique short identifier (``"e1"`` … ``"e19_local"``).
    fn:
        The experiment body: ``fn(ctx) -> dict`` of metrics.
    title:
        One-line human description shown by ``ppdm bench list``.
    tags:
        Free-form labels used for selection (``--tags smoke``).
    seed:
        Canonical seed reproducing the committed reference tables; the
        runner derives per-experiment seeds from ``--seed`` when one is
        given, and falls back to this otherwise.
    module:
        Name of the module that registered the experiment.
    floors:
        Minimum values for keys of the artifact's ``timing`` section,
        e.g. ``{"speedup_4_shards": 1.0}``.  ``ppdm bench compare``
        fails a candidate whose recorded value is below its floor, or
        that did not record the key at all.
    """

    id: str
    fn: Callable
    title: str = ""
    tags: tuple = ()
    seed: int = 7
    module: str = ""
    floors: dict = field(default_factory=dict, hash=False)


class ExperimentRegistry:
    """Id-keyed collection of :class:`Experiment` specs.

    Registration rejects duplicate ids outright — two modules silently
    fighting over ``"e5"`` would make every artifact ambiguous — and
    iteration is always naturally sorted by id, independent of
    registration order.
    """

    def __init__(self) -> None:
        self._specs: dict = {}

    def register(self, spec: Experiment) -> None:
        if not _ID_PATTERN.match(spec.id):
            raise BenchmarkError(
                f"invalid experiment id {spec.id!r}: ids are alphanumeric "
                "plus '_', '.', '-'"
            )
        _check_floors(spec)
        if spec.id in self._specs:
            other = self._specs[spec.id]
            site = _definition_site(spec.fn)
            if site is not None and site == _definition_site(other.fn):
                # the same file re-imported under another module name
                self._specs[spec.id] = spec
                return
            raise BenchmarkError(
                f"duplicate experiment id {spec.id!r}: already registered "
                f"by module {other.module!r}"
            )
        self._specs[spec.id] = spec

    def __contains__(self, experiment_id: str) -> bool:
        return experiment_id in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def ids(self) -> tuple:
        """All registered ids, naturally sorted (e2 before e10)."""
        return tuple(sorted(self._specs, key=_natural_key))

    def get(self, experiment_id: str) -> Experiment:
        try:
            return self._specs[experiment_id]
        except KeyError:
            known = ", ".join(self.ids()) or "<none>"
            raise BenchmarkError(
                f"unknown experiment id {experiment_id!r}; registered: {known}"
            ) from None

    def select(self, ids=None, tags=None) -> tuple:
        """Experiments matching the requested ids and/or tags.

        ``ids`` picks experiments explicitly (unknown ids raise).
        ``tags`` keeps experiments carrying *any* of the given tags.
        Both ``None`` selects everything.  The result is naturally
        sorted by id.
        """
        if ids is not None:
            selected = [self.get(i) for i in ids]
        else:
            selected = [self._specs[i] for i in self.ids()]
        if tags is not None:
            wanted = set(tags)
            unknown = wanted - {t for s in self._specs.values() for t in s.tags}
            if unknown:
                raise BenchmarkError(
                    f"unknown tags {sorted(unknown)}; known tags: "
                    f"{sorted({t for s in self._specs.values() for t in s.tags})}"
                )
            selected = [s for s in selected if wanted & set(s.tags)]
        return tuple(sorted(selected, key=lambda s: _natural_key(s.id)))

    def clear(self) -> None:
        """Forget every registration (test isolation helper)."""
        self._specs.clear()


def _check_floors(spec: Experiment) -> None:
    """Reject floors that could never gate: bad keys, non-positive minima."""
    label = f"experiment {spec.id!r} floors"
    for key, minimum in check_timing(spec.floors, label=label).items():
        if not key or not (math.isfinite(minimum) and minimum > 0):
            raise BenchmarkError(
                f"{label}[{key!r}] = {minimum!r}: keys must be non-empty, "
                "minima finite and > 0"
            )


#: process-global registry the :func:`experiment` decorator writes to
REGISTRY = ExperimentRegistry()


def experiment(
    experiment_id: str,
    *,
    title: str = "",
    tags: tuple = (),
    seed: int = 7,
    floors: dict = None,
    registry: ExperimentRegistry = None,
) -> Callable:
    """Register the decorated function as a benchmark experiment.

    The function keeps working as a plain callable (the pytest wrappers
    call it directly); registration only adds it to ``registry``
    (default: the process-global :data:`REGISTRY`).  ``floors`` declares
    the experiment's wall-clock floors (see :class:`Experiment`).
    """
    target = REGISTRY if registry is None else registry

    def decorate(fn: Callable) -> Callable:
        spec = Experiment(
            id=experiment_id,
            fn=fn,
            title=title,
            tags=tuple(tags),
            seed=seed,
            module=getattr(fn, "__module__", ""),
            floors=dict(floors or {}),
        )
        target.register(spec)
        fn.experiment = spec
        return fn

    return decorate


def default_benchmarks_dir() -> Path:
    """Locate the ``benchmarks/`` directory.

    Prefers ``./benchmarks`` relative to the working directory (the
    normal CLI invocation from the repo root), falling back to the
    checkout the package itself lives in.
    """
    cwd_candidate = Path.cwd() / "benchmarks"
    if cwd_candidate.is_dir():
        return cwd_candidate
    repo_candidate = Path(__file__).resolve().parents[3] / "benchmarks"
    if repo_candidate.is_dir():
        return repo_candidate
    raise BenchmarkError(
        "cannot locate a benchmarks/ directory; run from the repository "
        "root or pass --benchmarks-dir"
    )


#: absolute paths already imported by :func:`discover`
_DISCOVERED: dict = {}


def discover(benchmarks_dir=None, *, registry: ExperimentRegistry = None) -> tuple:
    """Import every ``bench_*.py`` module and return the discovered ids.

    Modules are imported in natural filename order, so registration —
    and everything downstream of it — is deterministic.  Re-discovering
    the same directory is a no-op for already-imported files, which
    makes the function safe to call from process-pool initializers.

    ``registry`` only scopes the *returned* ids; the modules register
    into whatever registry their decorators reference (the global one
    for the real benchmarks).
    """
    root = Path(benchmarks_dir) if benchmarks_dir else default_benchmarks_dir()
    if not root.is_dir():
        raise BenchmarkError(f"benchmarks directory {str(root)!r} does not exist")
    target = REGISTRY if registry is None else registry

    # Bench modules `from _common import ...`; satisfying that through
    # sys.modules (instead of a sys.path prepend) keeps discovery from
    # changing import resolution for the rest of the process.
    _load_module("_common", root / "_common.py", required=False)

    imported_by_file = None
    for path in sorted(root.glob(BENCH_GLOB), key=lambda p: _natural_key(p.name)):
        resolved = str(path.resolve())
        module = sys.modules.get(_DISCOVERED.get(resolved, ""))
        if module is None:
            if imported_by_file is None:
                imported_by_file = _imported_modules_by_file()
            module = imported_by_file.get(resolved)
        if module is None:
            # the digest keeps same-stem files from different directories
            # (test fixtures, multiple checkouts) apart in sys.modules
            digest = zlib.crc32(resolved.encode())
            module_name = f"repro_bench_{path.stem}_{digest:08x}"
            module = _load_module(module_name, path)
            _DISCOVERED[resolved] = module_name
        else:
            # file already executed (a prior discover, or pytest under its
            # bare stem): don't re-run it, but do re-register anything a
            # REGISTRY.clear() dropped
            _register_missing(module, target)
    return target.ids()


def _load_module(module_name: str, path: Path, *, required: bool = True):
    """Import ``path`` as ``module_name`` unless that name is taken."""
    if module_name in sys.modules:
        return sys.modules[module_name]
    if not path.is_file():
        if required:  # pragma: no cover - glob only yields existing files
            raise BenchmarkError(f"cannot import benchmark module {str(path)!r}")
        return None
    spec = importlib_util.spec_from_file_location(module_name, path)
    if spec is None or spec.loader is None:  # pragma: no cover - defensive
        raise BenchmarkError(f"cannot import benchmark module {str(path)!r}")
    module = importlib_util.module_from_spec(spec)
    sys.modules[module_name] = module
    spec.loader.exec_module(module)
    return module


def _imported_modules_by_file() -> dict:
    """Map of resolved source path -> already-imported module.

    pytest imports benchmark files under their bare stem; discovery must
    not execute such a file a second time, only reuse its registrations.
    """
    by_file = {}
    for module in list(sys.modules.values()):
        filename = getattr(module, "__file__", None)
        if not filename:
            continue
        try:
            by_file[str(Path(filename).resolve())] = module
        except OSError:  # pragma: no cover - defensive
            continue
    return by_file


def _register_missing(module, target: ExperimentRegistry) -> None:
    """Re-register a module's experiments that ``target`` has forgotten.

    Import-time decorators are the primary registration path; this walk
    only repairs the registry after an explicit ``clear()``.
    """
    for value in vars(module).values():
        spec = getattr(value, "experiment", None)
        if isinstance(spec, Experiment) and spec.id not in target:
            target.register(spec)
