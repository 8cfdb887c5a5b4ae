"""Lock-discipline race detector (rules L001, L002, L003).

The serving tier's bit-identity contract rests on a handful of locks
(shard locks, the estimate lock, the training buffer lock).  Nothing ties
an attribute to its lock in the source, so a refactor can silently move
a guarded mutation outside its ``with`` block — exactly the class of
race runtime tests rarely catch.  This checker recovers the discipline
statically:

* **L001 — guarded mutation outside its lock.**  An attribute mutated
  under ``with <base>.<lock>:`` anywhere in the library is *guarded by*
  that lock; mutating it elsewhere without holding any of its guards is
  a finding.  ``__init__``/``__post_init__`` bodies are exempt (the
  object is not yet shared), as are mutations of *locally owned*
  objects — values freshly constructed in the same function (e.g. a
  ``restore()`` classmethod populating the service it just built).
* **L002 — blocking call under a lock.**  I/O, ``join()``, ``sleep()``
  and friends while holding a lock stall every thread contending for
  it.  Deliberate cases (a snapshot lock *meant* to serialize writers)
  carry an inline ``# ppdm: ignore[L002]`` with a justification.
* **L003 — lock-order inversion.**  Acquisition order is collected into
  a directed graph — both direct ``with`` nesting and transitive
  acquisitions through method calls (resolved by method name across the
  library) — and any cycle is a potential deadlock.  Re-entrant
  acquisition of a ``threading.RLock`` is not an inversion.

Lock objects are recognized by assignment from ``threading.Lock()`` /
``threading.RLock()`` or by name (``*lock``/``*mutex`` attributes), so
locks reached through another object (``with self.peer.state_lock:``)
still count.  Guards are keyed by attribute name across the whole library
because lock-sharing code (a subclass adding to ``self._counts`` that a
base class in another module guards) rarely has the owning class in
scope at the use site.

Examples
--------
>>> from repro.analysis.locks import check_locks
>>> from repro.analysis.walker import parse_source, Project
>>> bad = parse_source(
...     "import threading\\n"
...     "class C:\\n"
...     "    def __init__(self):\\n"
...     "        self.lock = threading.Lock()\\n"
...     "        self.n = 0\\n"
...     "    def locked(self):\\n"
...     "        with self.lock:\\n"
...     "            self.n += 1\\n"
...     "    def racy(self):\\n"
...     "        self.n = 5\\n",
...     "src/repro/demo.py", "library")
>>> [f.rule for f in check_locks(Project([bad]))]
['L001']
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import RuleSpec, checker
from repro.analysis.walker import ParsedModule, Project

__all__ = ["check_locks"]

#: method names that mutate their receiver in place
_MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "add",
    "discard",
    "sort",
    "reverse",
    "fill",
}

#: attribute calls that block (I/O, joins, sleeps) — stalling every
#: thread contending for a held lock
_BLOCKING_METHODS = {
    "join",
    "sleep",
    "serve_forever",
    "handle_request",
    "accept",
    "connect",
    "recv",
    "recvfrom",
    "send",
    "sendall",
    "getresponse",
    "urlopen",
    "save",
    "load",
    "replace",
    "write_text",
    "read_text",
    "write_bytes",
    "read_bytes",
    "flush",
}

#: bare-name calls that block (``from time import sleep`` style)
_BLOCKING_NAMES = {"sleep", "urlopen"}

_INIT_METHODS = {"__init__", "__post_init__", "__new__"}


def _is_lock_name(name: str, known_locks: set) -> bool:
    lowered = name.lower()
    return (
        name in known_locks
        or lowered.endswith("lock")
        or lowered.endswith("mutex")
    )


def _lock_from_context(node: ast.expr, known_locks: set) -> str | None:
    """The lock name acquired by a ``with`` context expression, if any."""
    if isinstance(node, ast.Attribute) and _is_lock_name(node.attr, known_locks):
        return node.attr
    if isinstance(node, ast.Name) and _is_lock_name(node.id, known_locks):
        return node.id
    return None


def _root_name(node: ast.expr) -> str | None:
    """The base ``Name`` of an attribute/subscript/call chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def _is_owning_value(node: ast.expr, owned: set) -> bool:
    """Does this expression yield an object the function freshly owns?

    Covers direct construction (``cls(...)``, ``SomeClass(...)``),
    aliases of owned names, and calls/attributes reached *through* an
    owned name (``service.domain.spec(name)`` when ``service`` is owned).
    """
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id == "cls" or func.id.lstrip("_")[:1].isupper()
        if isinstance(func, ast.Attribute):
            if func.attr[:1].isupper():
                return True
            root = _root_name(func)
            return root is not None and root in owned
        return False
    if isinstance(node, ast.Name):
        return node.id in owned
    if isinstance(node, (ast.Attribute, ast.Subscript)):
        root = _root_name(node)
        return root is not None and root in owned
    return False


@dataclass
class _Mutation:
    attr: str
    held: frozenset
    module: ParsedModule
    line: int
    scope: str
    exempt: bool  # __init__ body or locally-owned receiver


@dataclass
class _LockFacts:
    """Everything the three rules need, collected in one AST pass."""

    known_locks: set = field(default_factory=set)
    rlocks: set = field(default_factory=set)
    mutations: list = field(default_factory=list)
    #: (outer lock, inner lock, module, line, scope) — direct nesting
    direct_edges: list = field(default_factory=list)
    #: (held frozenset, callee name, module, line, scope)
    calls_under_lock: list = field(default_factory=list)
    #: function bare name -> set of lock names it acquires directly
    acquires: dict = field(default_factory=dict)
    #: function bare name -> set of function bare names it calls
    callees: dict = field(default_factory=dict)
    #: (lock, callee description, module, line, scope) — blocking calls
    blocking: list = field(default_factory=list)


def _collect_lock_assignments(facts: _LockFacts, module: ParsedModule) -> None:
    """Record attributes assigned from ``threading.Lock()``/``RLock()``."""
    assert module.tree is not None
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        func = node.value.func
        factory = None
        if isinstance(func, ast.Attribute) and func.attr in ("Lock", "RLock"):
            factory = func.attr
        elif isinstance(func, ast.Name) and func.id in ("Lock", "RLock"):
            factory = func.id
        if factory is None:
            continue
        for target in node.targets:
            name = None
            if isinstance(target, ast.Attribute):
                name = target.attr
            elif isinstance(target, ast.Name):
                name = target.id
            if name is not None:
                facts.known_locks.add(name)
                if factory == "RLock":
                    facts.rlocks.add(name)


class _FunctionWalker:
    """Walk one function body tracking held locks and owned names."""

    def __init__(
        self, facts: _LockFacts, module: ParsedModule, scope: str, name: str
    ) -> None:
        self.facts = facts
        self.module = module
        self.scope = scope
        self.name = name
        self.in_init = name in _INIT_METHODS
        self.owned: set = set()
        facts.acquires.setdefault(name, set())
        facts.callees.setdefault(name, set())

    # -- events -------------------------------------------------------
    def _record_mutation(self, attr: str, base: ast.expr, held: tuple,
                         line: int) -> None:
        root = _root_name(base)
        exempt = self.in_init or (root is not None and root in self.owned)
        self.facts.mutations.append(
            _Mutation(
                attr=attr,
                held=frozenset(held),
                module=self.module,
                line=line,
                scope=self.scope,
                exempt=exempt,
            )
        )

    def _record_target(self, target: ast.expr, held: tuple, line: int) -> None:
        if isinstance(target, ast.Attribute):
            self._record_mutation(target.attr, target.value, held, line)
        elif isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Attribute):
                self._record_mutation(
                    target.value.attr, target.value.value, held, line
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, held, line)

    def _record_call(self, node: ast.Call, held: tuple) -> None:
        func = node.func
        callee = None
        if isinstance(func, ast.Attribute):
            callee = func.attr
            if callee in _MUTATOR_METHODS and isinstance(func.value, ast.Attribute):
                self._record_mutation(
                    func.value.attr, func.value.value, held, node.lineno
                )
        elif isinstance(func, ast.Name):
            callee = func.id
        if callee is None:
            return
        self.facts.callees[self.name].add(callee)
        blocking = (
            isinstance(func, ast.Attribute) and callee in _BLOCKING_METHODS
        ) or (isinstance(func, ast.Name) and callee in _BLOCKING_NAMES)
        if held:
            self.facts.calls_under_lock.append(
                (frozenset(held), callee, self.module, node.lineno, self.scope)
            )
            if blocking:
                self.facts.blocking.append(
                    (held[-1], callee, self.module, node.lineno, self.scope)
                )

    # -- traversal ----------------------------------------------------
    def walk(self, body: list, held: tuple = ()) -> None:
        for stmt in body:
            self._visit(stmt, held)

    def _visit(self, node: ast.AST, held: tuple) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _walk_scope(self.facts, self.module, node, self.scope)
            return
        if isinstance(node, ast.Lambda):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                self._visit(item.context_expr, inner)
                lock = _lock_from_context(item.context_expr, self.facts.known_locks)
                if lock is not None:
                    for outer in inner:
                        self.facts.direct_edges.append(
                            (outer, lock, self.module, node.lineno, self.scope)
                        )
                    self.facts.acquires[self.name].add(lock)
                    inner = inner + (lock,)
            self.walk(node.body, inner)
            return
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._record_target(target, held, node.lineno)
            if (
                len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
            ):
                name = node.targets[0].id
                if _is_owning_value(node.value, self.owned):
                    self.owned.add(name)
                else:
                    self.owned.discard(name)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if not (isinstance(node, ast.AnnAssign) and node.value is None):
                self._record_target(node.target, held, node.lineno)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._record_target(target, held, node.lineno)
        elif isinstance(node, ast.Call):
            self._record_call(node, held)
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                    ast.ClassDef,
                    ast.Lambda,
                    ast.With,
                    ast.AsyncWith,
                    ast.Assign,
                    ast.AugAssign,
                    ast.AnnAssign,
                    ast.Delete,
                ),
            ):
                self._visit(child, held)
            elif isinstance(child, ast.Call):
                self._visit(child, held)
            elif isinstance(child, (ast.stmt, ast.expr)):
                self._visit(child, held)


def _walk_scope(
    facts: _LockFacts, module: ParsedModule, node: ast.AST, prefix: str
) -> None:
    """Descend into a class/function, giving functions their own walker."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = f"{prefix}.{node.name}" if prefix != "<module>" else node.name
        walker = _FunctionWalker(facts, module, scope, node.name)
        walker.walk(node.body)
        return
    if isinstance(node, ast.ClassDef):
        scope = f"{prefix}.{node.name}" if prefix != "<module>" else node.name
        for child in node.body:
            _walk_scope(facts, module, child, scope)
        return
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _walk_scope(facts, module, child, prefix)


def _collect_facts(project: Project) -> _LockFacts:
    facts = _LockFacts()
    modules = [
        m for m in project.iter_modules(("library",)) if m.tree is not None
    ]
    for module in modules:
        _collect_lock_assignments(facts, module)
    for module in modules:
        assert module.tree is not None
        for child in module.tree.body:
            _walk_scope(facts, module, child, "<module>")
    return facts


def _transitive_acquires(facts: _LockFacts) -> dict:
    """Fixpoint closure of lock acquisitions through the call graph.

    Calls are resolved by bare method name, unioned across every
    definition of that name in the library — deliberately conservative:
    a false edge can only make the inversion check stricter.
    """
    closure = {name: set(locks) for name, locks in facts.acquires.items()}
    changed = True
    while changed:
        changed = False
        for name, callees in facts.callees.items():
            bucket = closure.setdefault(name, set())
            before = len(bucket)
            for callee in callees:
                bucket |= closure.get(callee, set())
            if len(bucket) != before:
                changed = True
    return closure


def _ordering_edges(facts: _LockFacts) -> dict:
    """Directed lock-order graph: edge L -> M with a representative site."""
    edges: dict = {}

    def add(outer: str, inner: str, module: ParsedModule, line: int,
            scope: str) -> None:
        if outer == inner:
            if outer in facts.rlocks:
                return  # re-entrant by design
        site = (module.relpath, line, scope)
        current = edges.get((outer, inner))
        if current is None or site < current:
            edges[(outer, inner)] = site

    for outer, inner, module, line, scope in facts.direct_edges:
        add(outer, inner, module, line, scope)
    closure = _transitive_acquires(facts)
    for held, callee, module, line, scope in facts.calls_under_lock:
        for inner in closure.get(callee, ()):
            for outer in held:
                add(outer, inner, module, line, scope)
    return edges


def _find_cycles(edges: dict) -> list:
    """Every distinct lock cycle, as a canonically rotated name tuple."""
    graph: dict = {}
    for outer, inner in edges:
        if outer == inner:
            graph.setdefault(outer, set()).add(inner)
            continue
        graph.setdefault(outer, set()).add(inner)
    cycles = set()

    def dfs(start: str, node: str, path: tuple) -> None:
        for nxt in sorted(graph.get(node, ())):
            if nxt == start:
                rotation = min(
                    path[i:] + path[:i] for i in range(len(path))
                )
                cycles.add(rotation)
            elif nxt not in path and nxt > start:
                # only explore nodes after start: each cycle is found
                # exactly once, from its smallest member
                dfs(start, nxt, path + (nxt,))

    for node in sorted(graph):
        if node in graph.get(node, ()):
            cycles.add((node,))
        dfs(node, node, (node,))
    return sorted(cycles)


def _guard_map(facts: _LockFacts) -> tuple:
    """``attr -> set of guarding locks`` plus a representative site each."""
    guards: dict = {}
    sites: dict = {}
    for mutation in facts.mutations:
        if mutation.held:
            guards.setdefault(mutation.attr, set()).update(mutation.held)
            site = (mutation.module.relpath, mutation.line)
            if mutation.attr not in sites or site < sites[mutation.attr]:
                sites[mutation.attr] = site
    return guards, sites


@checker(
    "locks",
    title="Lock-discipline race detector for the serving tier",
    rules=(
        RuleSpec(
            "L001",
            "guarded attribute mutated outside its owning lock",
            rationale=(
                "An attribute consistently mutated under a lock is shared "
                "state; one unguarded write reintroduces exactly the race "
                "the lock exists to prevent — and breaks the service's "
                "bit-identity contract silently."
            ),
        ),
        RuleSpec(
            "L002",
            "blocking call (I/O, join, sleep) while holding a lock",
            severity="warning",
            rationale=(
                "A lock held across I/O or a join stalls every thread "
                "contending for it; the ingest hot path must never wait "
                "on a snapshot write or socket."
            ),
        ),
        RuleSpec(
            "L003",
            "lock-order inversion (potential deadlock cycle)",
            rationale=(
                "Two code paths acquiring the same locks in opposite "
                "orders deadlock under load; the acquisition graph must "
                "stay acyclic."
            ),
        ),
    ),
)
def check_locks(project: Project) -> Iterator[Finding]:
    """Run the three lock-discipline rules over the library modules."""
    facts = _collect_facts(project)
    guards, guard_sites = _guard_map(facts)

    for mutation in facts.mutations:
        guarding = guards.get(mutation.attr)
        if not guarding or mutation.exempt or (mutation.held & guarding):
            continue
        lock_names = ", ".join(sorted(guarding))
        where = "%s:%d" % guard_sites[mutation.attr]
        yield Finding(
            rule="L001",
            path=mutation.module.relpath,
            line=mutation.line,
            scope=mutation.scope,
            message=(
                f"attribute '{mutation.attr}' is guarded by "
                f"'{lock_names}' (see {where}) but mutated here without it"
            ),
            hint=(
                f"wrap the mutation in 'with ...{sorted(guarding)[0]}:' or "
                "suppress deliberately with '# ppdm: ignore[L001]'"
            ),
        )

    for lock, callee, module, line, scope in facts.blocking:
        yield Finding(
            rule="L002",
            path=module.relpath,
            line=line,
            scope=scope,
            severity="warning",
            message=(
                f"'{callee}()' may block while '{lock}' is held; every "
                "thread contending for the lock stalls with it"
            ),
            hint=(
                "move the call outside the 'with' block, or suppress a "
                "deliberate single-writer section with "
                "'# ppdm: ignore[L002]'"
            ),
        )

    edges = _ordering_edges(facts)
    for cycle in _find_cycles(edges):
        pairs = [
            (cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))
        ]
        site = min(edges[pair] for pair in pairs if pair in edges)
        path, line, scope = site
        order = " -> ".join(cycle + (cycle[0],))
        yield Finding(
            rule="L003",
            path=path,
            line=line,
            scope=scope,
            message=f"lock-order inversion: acquisition cycle {order}",
            hint=(
                "pick one global acquisition order for these locks and "
                "restructure the nesting (or make the re-entrant lock an "
                "RLock)"
            ),
        )
