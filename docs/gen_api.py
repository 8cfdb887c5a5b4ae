#!/usr/bin/env python
"""Generate the markdown API reference from docstrings (stdlib only).

The docs site must build without heavyweight plugin dependencies, so
instead of mkdocstrings this script walks the documented packages with
``inspect``/``pkgutil`` and emits deterministic markdown under
``docs/api/``.  The emitted pages are committed; CI (and
``tests/test_docs.py``) run ``gen_api.py --check`` so a docstring edit
that forgets to regenerate fails fast.

Usage::

    PYTHONPATH=src python docs/gen_api.py            # (re)write docs/api/
    PYTHONPATH=src python docs/gen_api.py --check    # verify in sync
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

DOCS_DIR = Path(__file__).resolve().parent
API_DIR = DOCS_DIR / "api"

#: documented surfaces: (page filename, root module, page title)
PAGES = (
    ("repro.md", "repro", "`repro` — package root"),
    ("repro-core.md", "repro.core", "`repro.core` — reconstruction core"),
    ("repro-bench.md", "repro.bench", "`repro.bench` — benchmark orchestration"),
    ("repro-service.md", "repro.service", "`repro.service` — aggregation service"),
    ("repro-serialize.md", "repro.serialize", "`repro.serialize` — snapshots"),
    ("repro-analysis.md", "repro.analysis", "`repro.analysis` — static analyzer"),
)

HEADER = (
    "<!-- GENERATED FILE — do not edit by hand.\n"
    "     Regenerate with: PYTHONPATH=src python docs/gen_api.py -->\n\n"
)


def _submodules(root_name: str) -> list:
    """The root module plus its direct submodules, sorted by name."""
    root = importlib.import_module(root_name)
    names = [root_name]
    if hasattr(root, "__path__"):
        for info in pkgutil.iter_modules(root.__path__):
            if not info.name.startswith("_"):
                names.append(f"{root_name}.{info.name}")
    return [importlib.import_module(name) for name in sorted(names)]


def _public_members(module) -> list:
    """(name, object) pairs documented for ``module``, declaration order.

    Classes and functions *defined in* the module (``__all__`` order when
    declared, else source order), underscore names excluded.
    """
    names = getattr(module, "__all__", None)
    if names is None:
        members = [
            (name, obj)
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isclass(obj) or inspect.isfunction(obj))
            and getattr(obj, "__module__", None) == module.__name__
        ]
        return members
    resolved = []
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            resolved.append((name, obj))
    return resolved


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _docstring_block(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "*(undocumented)*\n"
    # Docstrings are numpy/RST styled; a fenced block preserves their
    # layout (sections, doctests) without fighting markdown rendering.
    return f"```text\n{doc}\n```\n"


def _methods(cls) -> list:
    """Public methods/properties of ``cls``, source order.

    Members ``cls`` inherits from private (underscore-named) base
    classes follow its own, since those bases have no section of their
    own.
    """
    members = []
    names = set()
    private_bases = [b for b in cls.__mro__[1:] if b.__name__.startswith("_")]
    for klass in (cls, *private_bases):
        for name, obj in vars(klass).items():
            if name.startswith("_") or name in names:
                continue
            names.add(name)
            if isinstance(obj, property):
                members.append((name, obj, "property"))
            elif isinstance(obj, (staticmethod, classmethod)):
                members.append((name, obj.__func__, type(obj).__name__))
            elif inspect.isfunction(obj):
                members.append((name, obj, "method"))
    return members


def _render_class(name: str, cls) -> list:
    lines = [f"### `{name}{_signature(cls)}`\n", _docstring_block(cls)]
    methods = _methods(cls)
    if methods:
        lines.append("")
    for method_name, method, kind in methods:
        if kind == "property":
            lines.append(f"#### `{name}.{method_name}` *(property)*\n")
            doc = inspect.getdoc(method.fget) or inspect.getdoc(method) or ""
            lines.append(f"```text\n{doc}\n```\n" if doc else "*(undocumented)*\n")
        else:
            suffix = " *(classmethod)*" if kind == "classmethod" else (
                " *(staticmethod)*" if kind == "staticmethod" else ""
            )
            lines.append(
                f"#### `{name}.{method_name}{_signature(method)}`{suffix}\n"
            )
            lines.append(_docstring_block(method))
    return lines


def _render_module(module) -> list:
    lines = [f"## Module `{module.__name__}`\n"]
    doc = inspect.getdoc(module)
    if doc:
        lines.append(f"```text\n{doc}\n```\n")
    for name, obj in _public_members(module):
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-export; documented where it is defined
        if inspect.isclass(obj):
            lines.extend(_render_class(name, obj))
        else:
            lines.append(f"### `{name}{_signature(obj)}`\n")
            lines.append(_docstring_block(obj))
    return lines


def render_page(root_name: str, title: str) -> str:
    lines = [HEADER + f"# {title}\n"]
    for module in _submodules(root_name):
        lines.extend(_render_module(module))
    return "\n".join(lines).rstrip() + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify docs/api/ matches the current docstrings (exit 1 on drift)",
    )
    args = parser.parse_args(argv)

    rendered = {
        filename: render_page(root, title) for filename, root, title in PAGES
    }
    if args.check:
        stale = []
        for filename, content in rendered.items():
            path = API_DIR / filename
            if not path.is_file() or path.read_text() != content:
                stale.append(str(path))
        expected = set(rendered)
        extras = [
            str(p) for p in sorted(API_DIR.glob("*.md")) if p.name not in expected
        ]
        if stale or extras:
            for path in stale:
                print(f"stale or missing: {path}", file=sys.stderr)
            for path in extras:
                print(f"unexpected page: {path}", file=sys.stderr)
            print(
                "regenerate with: PYTHONPATH=src python docs/gen_api.py",
                file=sys.stderr,
            )
            return 1
        print(f"docs/api in sync ({len(rendered)} pages)")
        return 0

    API_DIR.mkdir(parents=True, exist_ok=True)
    for filename, content in rendered.items():
        (API_DIR / filename).write_text(content)
        print(f"wrote docs/api/{filename}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
