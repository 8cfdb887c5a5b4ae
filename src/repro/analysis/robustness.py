"""Failure-handling lint for the serving tier (rule R001).

The resilience work (fault injection, crash-safe snapshots, worker
supervision) is only trustworthy if the serving tier never *swallows* a
failure: an ``except`` clause whose body is just ``pass`` (or ``...``)
turns a dropped partial, a failed snapshot, or a dead worker into
silence.

* **R001 — swallowed exception in the serving tier.**  An exception
  handler under ``src/repro/service`` whose body contains no statement
  other than ``pass``/``...`` discards the failure without logging,
  counting, or re-raising it.  Handle the error (log it, record it in a
  stats counter, convert it to a result) or, when discarding really is
  the intent, say so greppably with ``contextlib.suppress`` or an
  inline ``# ppdm: ignore[R001]``.

Examples
--------
>>> from repro.analysis.robustness import check_robustness
>>> from repro.analysis.walker import parse_source, Project
>>> bad = parse_source(
...     "try:\\n"
...     "    push()\\n"
...     "except OSError:\\n"
...     "    pass\\n",
...     "src/repro/service/demo.py", "library")
>>> [f.rule for f in check_robustness(Project([bad]))]
['R001']
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import RuleSpec, checker
from repro.analysis.walker import Project, iter_scoped

__all__ = ["check_robustness"]

#: path prefix of the tier the rule guards
_SERVICE_PREFIX = "src/repro/service/"


def _handler_label(handler: ast.ExceptHandler) -> str:
    """Human-readable ``except`` clause for the finding message."""
    if handler.type is None:
        return "except:"
    try:
        return f"except {ast.unparse(handler.type)}:"
    except ValueError:  # pragma: no cover - unparse edge case
        return "except ...:"


def _is_noop(statement: ast.stmt) -> bool:
    """Is this statement ``pass`` or a bare ``...`` expression?"""
    if isinstance(statement, ast.Pass):
        return True
    return (
        isinstance(statement, ast.Expr)
        and isinstance(statement.value, ast.Constant)
        and statement.value.value is Ellipsis
    )


@checker(
    "robustness",
    title="Failure handling: the serving tier never swallows exceptions",
    rules=(
        RuleSpec(
            "R001",
            "exception handler in the serving tier is only pass/...",
            rationale=(
                "A silent 'except: pass' turns a dropped partial, failed "
                "snapshot, or dead worker into an invisible correctness "
                "bug; failures must be logged, counted, or re-raised."
            ),
        ),
    ),
)
def check_robustness(project: Project) -> Iterator[Finding]:
    """Flag swallowed exceptions in ``src/repro/service`` modules."""
    for module in project.iter_modules(("library",)):
        if module.tree is None:
            continue
        if not module.relpath.startswith(_SERVICE_PREFIX):
            continue
        for node, scope in iter_scoped(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not all(_is_noop(statement) for statement in node.body):
                continue
            yield Finding(
                rule="R001",
                path=module.relpath,
                line=node.lineno,
                scope=scope,
                message=(
                    f"serving-tier handler '{_handler_label(node)}' "
                    "swallows the exception (body is only pass/...)"
                ),
                hint=(
                    "log the failure, count it in stats(), or re-raise a "
                    "repro.exceptions type; use contextlib.suppress for "
                    "deliberate discards"
                ),
            )
