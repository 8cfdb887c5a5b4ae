"""Deterministic, seeded fault injection for the serving stack.

Chaos engineering is only useful when a failing run can be replayed:
this module gives the serving tier named *injection points* (an HTTP
response about to be sent, a worker's registration attempt, a
snapshot write, a live worker process) whose behaviour is driven by a
:class:`FaultPlan` — a seed plus per-point action probabilities.  Every
decision is a pure function of ``(seed, point key, attempt number)``
via SHA-256, so the *n*-th request at a point sees the same fault on
every run, on every machine, regardless of thread scheduling.  No
global RNG state is consulted and no RNG object is constructed, which
keeps the plan compatible with the project's determinism lints.

A plan is a JSON-able spec::

    {"seed": 7,
     "points": {"httpd.response:/partial": {"error": 0.5, "max": 6},
                "register.request": {"drop": 0.25, "delay": 0.25},
                "snapshot.write": {"fail": 1.0, "max": 1}}}

Point names used by the stack:

``httpd.response``
    Consulted by :class:`~repro.service.httpd.ServiceHTTPServer`'s
    handler once the request body has been read, with the request path
    as qualifier (so ``httpd.response:/partial`` targets only the
    coordinator's pulls).  Actions: ``drop`` (close the connection
    without a response), ``error`` (reply 503 + ``Retry-After``),
    ``delay``.
``snapshot.write``
    Consulted by the durability layer inside the snapshot lock.
    Action: ``fail`` (raise before any byte is written).
``supervisor.kill``
    Consulted by :class:`~repro.service.cluster.ClusterSupervisor`'s
    monitor, with the worker index as qualifier.  Action: ``kill``
    (SIGKILL the live worker process).
``register.request``
    Consulted by :func:`~repro.service.cluster.register_worker` before
    each registration attempt.  Actions: ``drop``, ``delay``.

Examples
--------
>>> from repro.service.faults import FaultPlan
>>> plan = FaultPlan({"seed": 7, "points": {"demo": {"error": 1.0, "max": 2}}})
>>> [a.kind if a else None
...  for a in (plan.decide("demo"), plan.decide("demo"), plan.decide("demo"))]
['error', 'error', None]
>>> FaultPlan({"seed": 7, "points": {"demo": {"error": 0.5}}}).decide("other")
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

from repro.exceptions import ValidationError
from repro.utils.validation import check_json_number

__all__ = ["ACTION_KINDS", "FaultAction", "FaultPlan"]

#: action kinds in the (fixed) order probability mass is assigned
ACTION_KINDS = ("drop", "error", "delay", "fail", "kill")

#: environment variable holding a plan spec (inline JSON or ``@path``)
PLAN_ENV_VAR = "PPDM_FAULT_PLAN"

_POINT_OPTIONS = ("max", "status", "delay_seconds")


def _number(key: str, name: str, raw, low, high=sys.float_info.max, *,
            integer: bool = False):
    """Point ``key``'s entry ``name``: a JSON number in ``[low, high]``."""
    value = check_json_number(raw, f"fault point {key!r}: {name}", integer=integer)
    if not low <= value <= high:
        bound = (f"in [{low}, {high}]" if high < sys.float_info.max
                 else f"a finite number >= {low}")
        raise ValidationError(
            f"fault point {key!r}: {name} must be {bound}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class FaultAction:
    """One fault the plan decided to inject.

    Attributes
    ----------
    kind:
        One of :data:`ACTION_KINDS`.
    point:
        The spec key that matched (qualified form when one existed).
    index:
        0-based count of faults fired at this point so far.
    value:
        Action parameter — delay seconds for ``delay``, else ``0.0``.
    status:
        HTTP status for ``error`` actions (default 503).
    """

    kind: str
    point: str
    index: int
    value: float = 0.0
    status: int = 503


class _Point:
    """Mutable per-point state: configured rates plus fire counters."""

    __slots__ = ("rates", "max_fires", "status", "delay_seconds",
                 "attempts", "fired")

    def __init__(self, key: str, options: Mapping[str, object]) -> None:
        if not isinstance(options, Mapping):
            raise ValidationError(
                f"fault point {key!r} must map actions to rates, "
                f"got {type(options).__name__}"
            )
        self.rates: dict[str, float] = {}
        self.max_fires: Optional[int] = None
        self.status = 503
        self.delay_seconds = 0.05
        self.attempts = 0
        self.fired = 0
        for name, raw in options.items():
            if name == "max":
                self.max_fires = _number(key, name, raw, 0, integer=True)
            elif name == "status":
                # an injected error must look like one
                self.status = _number(key, name, raw, 400, 599, integer=True)
            elif name == "delay_seconds":
                self.delay_seconds = float(_number(key, name, raw, 0))
            elif name in ACTION_KINDS:
                self.rates[str(name)] = float(_number(key, name, raw, 0, 1))
            else:
                raise ValidationError(
                    f"fault point {key!r}: unknown entry {name!r} "
                    f"(actions: {', '.join(ACTION_KINDS)}; "
                    f"options: {', '.join(_POINT_OPTIONS)})"
                )
        if sum(self.rates.values()) > 1.0 + 1e-12:
            raise ValidationError(
                f"fault point {key!r}: action rates sum past 1.0"
            )


def _unit(seed: int, key: str, attempt: int) -> float:
    """Deterministic uniform draw in ``[0, 1)`` for one attempt."""
    digest = hashlib.sha256(f"{seed}:{key}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class FaultPlan:
    """A seeded schedule of faults over named injection points.

    Thread-safe: injection points are consulted from handler threads
    and the supervisor's monitor concurrently; the per-point attempt
    counters are advanced under one lock.

    Examples
    --------
    >>> from repro.service.faults import FaultPlan
    >>> plan = FaultPlan(
    ...     {"seed": 7, "points": {"demo": {"drop": 1.0, "max": 1}}}
    ... )
    >>> plan.decide("demo").kind, plan.decide("demo")
    ('drop', None)
    >>> plan.stats()
    {'demo': {'attempts': 2, 'fired': 1}}
    """

    def __init__(self, spec: Mapping[str, object]) -> None:
        if not isinstance(spec, Mapping):
            raise ValidationError(
                f"fault plan spec must be a mapping, got {type(spec).__name__}"
            )
        unknown = set(spec) - {"seed", "points"}
        if unknown:
            raise ValidationError(
                f"fault plan spec has unknown keys {sorted(unknown)}"
            )
        self.seed = check_json_number(
            spec.get("seed", 0), "fault plan seed", integer=True
        )
        points = spec.get("points", {})
        if not isinstance(points, Mapping):
            raise ValidationError("fault plan 'points' must be a mapping")
        self._points = {
            str(key): _Point(str(key), options)
            for key, options in points.items()
        }
        self._spec = copy.deepcopy(dict(spec))
        self._lock = threading.Lock()

    @classmethod
    def from_spec(cls, spec: Optional[Mapping[str, object]]) -> Optional["FaultPlan"]:
        """Build a plan from a spec dict; ``None``/empty spec -> ``None``."""
        if not spec:
            return None
        return cls(spec)

    @classmethod
    def from_text(cls, text: Optional[str]) -> Optional["FaultPlan"]:
        """Build a plan from inline JSON or a plan file; blank -> ``None``.

        Text starting with ``{`` is the spec itself; anything else names
        a JSON file, with or without a leading ``@``.  The one parser of
        ``--fault-plan`` and ``PPDM_FAULT_PLAN``.
        """
        text = (text or "").strip()
        if not text:
            return None
        if not text.startswith("{"):
            path = Path(text.removeprefix("@"))
            try:
                text = path.read_text()
            except OSError as exc:
                raise ValidationError(
                    f"cannot read fault plan file {str(path)!r}: {exc}"
                ) from exc
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"fault plan is not valid JSON: {exc}"
            ) from exc
        return cls.from_spec(spec)

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> Optional["FaultPlan"]:
        """Build a plan from ``PPDM_FAULT_PLAN`` if set, else ``None``.

        The variable holds what :meth:`from_text` reads.
        """
        env = os.environ if environ is None else environ
        return cls.from_text(env.get(PLAN_ENV_VAR))

    def to_spec(self) -> dict:
        """The (immutable) spec this plan was built from.

        Ship this to worker processes — each side rebuilds its
        own plan, so counters are per-process but the schedule each
        process walks is identical run to run.
        """
        return copy.deepcopy(self._spec)

    def decide(
        self, point: str, qualifier: Optional[str] = None
    ) -> Optional[FaultAction]:
        """Consult the plan at ``point``; return the fault to inject, if any.

        A qualified key (``f"{point}:{qualifier}"``) takes precedence
        over the bare point name; a point the spec never names costs
        nothing and returns ``None``.
        """
        key = None
        if qualifier is not None and f"{point}:{qualifier}" in self._points:
            key = f"{point}:{qualifier}"
        elif point in self._points:
            key = point
        if key is None:
            return None
        state = self._points[key]
        with self._lock:
            attempt = state.attempts
            state.attempts += 1
            if state.max_fires is not None and state.fired >= state.max_fires:
                return None
            u = _unit(self.seed, key, attempt)
            cumulative = 0.0
            for kind in ACTION_KINDS:
                rate = state.rates.get(kind)
                if not rate:
                    continue
                cumulative += rate
                if u < cumulative:
                    index = state.fired
                    state.fired += 1
                    return FaultAction(
                        kind=kind,
                        point=key,
                        index=index,
                        value=state.delay_seconds if kind == "delay" else 0.0,
                        status=state.status,
                    )
        return None

    def stats(self) -> dict:
        """Per-point ``{"attempts": ..., "fired": ...}`` counters."""
        with self._lock:
            return {
                key: {"attempts": state.attempts, "fired": state.fired}
                for key, state in sorted(self._points.items())
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(seed={self.seed}, "
            f"points={sorted(self._points)})"
        )
