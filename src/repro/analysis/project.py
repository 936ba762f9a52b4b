"""Project-wide import & call-graph analysis for the hot-core rules.

Where :mod:`repro.analysis.rules` inspects one AST at a time, the
contract rules of :mod:`repro.analysis.contracts` need to know *which
functions run per simulated event*.  This module derives that from the
whole parsed project:

1. **Import scopes** — for every module, the names its imports bind
   (``import repro.x`` / ``from repro.x import y``, plus single-level
   relative imports).  Module names come from each file's
   ``__init__.py`` package chain, so they do not depend on where the
   lint run is rooted.  Bare-name call resolution only looks at a
   module's own definitions and its imports, so an unimported helper
   never produces a phantom edge.
2. **Approximate call graph** — name-based resolution, no type
   inference: ``self.meth(...)`` binds to the enclosing class when it
   defines ``meth`` and otherwise to every project method of that
   name; ``obj.meth(...)`` binds to every project method named
   ``meth``; ``Cls(...)`` binds to ``Cls.__init__``.  Methods that
   only exist on stdlib/numpy objects are not in the index and
   resolve to nothing, which keeps the over-approximation small.
   A nested ``def`` gets an edge from its encloser (closures are
   invoked later, from wherever the encloser escaped them to), and
   calls inside ``lambda`` bodies belong to the enclosing function.
3. **Hot set** — everything reachable from ``Engine``'s event
   dispatch.  Every callback only enters the dispatch loop through a
   ``callback`` parameter (``Engine.schedule`` / ``schedule_at``,
   ``Event``, ``PeriodicProcess``), so the seeds are: any function
   reference bound to a parameter named ``callback`` of a resolvable
   project callee, plus — as a fallback for unresolvable receivers —
   the second positional argument of any ``*.schedule(...)`` /
   ``*.schedule_at(...)`` call.  A ``lambda`` seed contributes the
   project functions its body calls.  The hot set is the transitive
   closure of the seeds over the call graph; each hot function
   remembers the seed it was reached from so findings can explain
   *why* a function is considered hot.

The graph is deliberately flow- and type-insensitive: it may include
functions that never actually run per event (over-approximation), and
it can miss calls made through containers of callables other than the
``callback`` convention (under-approximation).  Both limits are
acceptable for lint: false positives are sanctioned inline with a
reasoned suppression, and the conventions the rules guard are exactly
the ones the codebase already follows.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.framework import ParsedModule, Project

#: Callee attribute names whose second positional argument is treated
#: as a scheduled callback even when the receiver cannot be resolved
#: (``engine.schedule(delay, cb)`` on an untyped ``engine``).
SCHEDULE_CALLEES = frozenset({"schedule", "schedule_at"})

#: The parameter-name convention that marks a dispatched callback.
CALLBACK_PARAM = "callback"


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition in the project."""

    qname: str  #: ``modname:Class.method`` / ``modname:func``
    display_path: str
    bare: str  #: unqualified name (``method``)
    cls: Optional[str]  #: enclosing class name, if any
    node: ast.AST  #: the FunctionDef / AsyncFunctionDef
    params: Tuple[str, ...]  #: positional parameter names, incl. self


def module_name(path: str) -> str:
    """Dotted module name for a source file, from its package chain.

    Every enclosing directory holding an ``__init__.py`` adds one
    package level, so ``src/repro/network/peer.py`` maps to
    ``repro.network.peer`` whichever directory the lint run starts
    from.  A file outside any package (a test fixture in a temp dir)
    maps to its bare stem, and ``__init__.py`` maps to its package.
    """
    directory = os.path.dirname(os.path.abspath(path))
    stem = os.path.splitext(os.path.basename(path))[0]
    parts: List[str] = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        if not package:
            break
        parts.append(package)
    return ".".join(reversed(parts)) or stem


def _own_body_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Every node of a function's own body, skipping nested defs.

    Lambda bodies *are* walked (they execute as part of the enclosing
    function's logic once invoked); nested ``def``/``class`` bodies are
    not — they are separate call-graph nodes.
    """
    body = getattr(func, "body", [])
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


@dataclass
class _ModuleScope:
    """Per-module name-resolution context."""

    #: local name -> imported module dotted name (``import a.b as c``)
    module_aliases: Dict[str, str] = field(default_factory=dict)
    #: local name -> (source module, object name) (``from a import b``)
    object_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)


class ProjectGraph:
    """Import scopes, approximate call graph, and the derived hot set."""

    def __init__(self) -> None:
        #: qname -> definition
        self.functions: Dict[str, FunctionInfo] = {}
        #: caller qname -> callee qnames
        self.calls: Dict[str, Set[str]] = {}
        #: hot qname -> qname of the scheduled-callback seed it was
        #: reached from (a seed maps to itself)
        self.hot: Dict[str, str] = {}
        # indexes (internal)
        self._toplevel: Dict[Tuple[str, str], str] = {}  # (mod, name) -> qname
        self._methods: Dict[str, Set[str]] = {}  # bare method name -> qnames
        self._classes: Dict[Tuple[str, str], Dict[str, str]] = {}
        self._scopes: Dict[str, _ModuleScope] = {}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_hot(self, qname: str) -> bool:
        """Whether ``qname`` is in the Engine-dispatch-reachable set."""
        return qname in self.hot

    def hot_reason(self, qname: str) -> str:
        """Human-readable provenance for a hot function."""
        seed = self.hot.get(qname, qname)
        if seed == qname:
            return "scheduled as an Engine callback"
        return f"reachable from scheduled callback '{seed}'"

    def functions_in(self, module: ParsedModule) -> List[FunctionInfo]:
        """Every function defined in ``module``, in qname order."""
        return sorted(
            (
                info
                for info in self.functions.values()
                if info.display_path == module.display_path
            ),
            key=lambda info: info.qname,
        )


def project_graph(project: Project) -> ProjectGraph:
    """Build the call graph and hot set of one lint run's project."""
    graph = ProjectGraph()
    named = [(module, module_name(module.path)) for module in project.modules]
    for module, modname in named:
        _collect_definitions(graph, module, modname)
    for module, modname in named:
        _collect_imports(graph, module, modname)
    seeds: Dict[str, str] = {}
    for module, modname in named:
        _collect_edges_and_seeds(graph, module, modname, seeds)
    _close_hot_set(graph, seeds)
    return graph


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def _collect_definitions(graph: ProjectGraph, module: ParsedModule, modname: str) -> None:
    graph._scopes.setdefault(modname, _ModuleScope())

    def visit(node: ast.AST, prefix: str, cls: Optional[str]) -> None:
        for item in getattr(node, "body", []):
            if isinstance(item, ast.ClassDef):
                graph._classes.setdefault((modname, item.name), {})
                visit(item, prefix=f"{prefix}{item.name}.", cls=item.name)
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{modname}:{prefix}{item.name}"
                params = tuple(arg.arg for arg in item.args.args)
                info = FunctionInfo(
                    qname=qname,
                    display_path=module.display_path,
                    bare=item.name,
                    cls=cls,
                    node=item,
                    params=params,
                )
                graph.functions[qname] = info
                if cls is None and prefix == "":
                    graph._toplevel[(modname, item.name)] = qname
                if cls is not None:
                    graph._methods.setdefault(item.name, set()).add(qname)
                    graph._classes[(modname, cls)][item.name] = qname
                # Nested defs: separate nodes, edge added by the edge pass.
                visit(item, prefix=f"{prefix}{item.name}.", cls=cls)

    visit(module.tree, prefix="", cls=None)


def _collect_imports(graph: ProjectGraph, module: ParsedModule, modname: str) -> None:
    scope = graph._scopes[modname]
    package = modname.rsplit(".", 1)[0] if "." in modname else ""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                scope.module_aliases[local] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                source = f"{package}.{source}" if source else package
            if not source:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                scope.object_imports[local] = (source, alias.name)


def _collect_edges_and_seeds(
    graph: ProjectGraph, module: ParsedModule, modname: str, seeds: Dict[str, str]
) -> None:
    for info in graph.functions_in(module):
        callees: Set[str] = graph.calls.setdefault(info.qname, set())
        # Closures: the encloser can hand any nested def to the engine.
        node = info.node
        for item in ast.walk(node):
            if item is node:
                continue
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                parent_prefix = info.qname
                # Only direct or transitive nested defs of this function
                # are rooted under its qname.
                nested = f"{parent_prefix}.{item.name}"
                if nested in graph.functions:
                    callees.add(nested)
        for item in _own_body_nodes(node):
            if not isinstance(item, ast.Call):
                continue
            targets = _resolve_call(graph, modname, info, item.func)
            callees.update(targets)
            _seed_callbacks(graph, modname, info, item, targets, seeds)


def _resolve_call(
    graph: ProjectGraph,
    modname: str,
    caller: FunctionInfo,
    func: ast.AST,
) -> Set[str]:
    """Approximate targets of a call/reference expression."""
    targets: Set[str] = set()
    if isinstance(func, ast.Name):
        name = func.id
        # Local class constructor?
        ctor = _constructor(graph, modname, name)
        if ctor is not None:
            targets.add(ctor)
            return targets
        qname = graph._toplevel.get((modname, name))
        if qname is not None:
            targets.add(qname)
            return targets
        scope = graph._scopes.get(modname)
        if scope is not None and name in scope.object_imports:
            source, obj = scope.object_imports[name]
            ctor = _constructor(graph, source, obj)
            if ctor is not None:
                targets.add(ctor)
                return targets
            qname = graph._toplevel.get((source, obj))
            if qname is not None:
                targets.add(qname)
        return targets
    if isinstance(func, ast.Attribute):
        attr = func.attr
        receiver = func.value
        # self.meth: prefer the enclosing class's own method.
        if (
            isinstance(receiver, ast.Name)
            and receiver.id == "self"
            and caller.cls is not None
        ):
            own = graph._classes.get((modname, caller.cls), {}).get(attr)
            if own is not None:
                targets.add(own)
                return targets
        # module alias call: imported_mod.func(...) — both ``import a.b
        # as c`` and ``from a import b`` (where ``b`` is a module) bind
        # a module object to a local name.
        if isinstance(receiver, ast.Name):
            scope = graph._scopes.get(modname)
            sources: List[str] = []
            if scope is not None and receiver.id in scope.module_aliases:
                sources.append(scope.module_aliases[receiver.id])
            if scope is not None and receiver.id in scope.object_imports:
                package, obj = scope.object_imports[receiver.id]
                sources.append(f"{package}.{obj}")
            for source in sources:
                qname = graph._toplevel.get((source, attr))
                if qname is not None:
                    targets.add(qname)
                    return targets
                ctor = _constructor(graph, source, attr)
                if ctor is not None:
                    targets.add(ctor)
                    return targets
        # Any project method of that name (approximate).
        targets.update(graph._methods.get(attr, ()))
    return targets


def _constructor(graph: ProjectGraph, modname: str, cls: str) -> Optional[str]:
    methods = graph._classes.get((modname, cls))
    if methods is None:
        return None
    return methods.get("__init__")


def _callable_params(graph: ProjectGraph, qname: str) -> Tuple[Tuple[str, ...], bool]:
    """Positional params of a callee and whether the first is bound."""
    info = graph.functions[qname]
    bound = info.cls is not None  # methods & constructors drop self
    return info.params, bound


def _seed_callbacks(
    graph: ProjectGraph,
    modname: str,
    caller: FunctionInfo,
    call: ast.Call,
    targets: Set[str],
    seeds: Dict[str, str],
) -> None:
    """Record arguments bound to a ``callback`` parameter as hot seeds."""
    callback_args: List[ast.AST] = []
    for qname in targets:
        params, bound = _callable_params(graph, qname)
        positional = params[1:] if bound and params else params
        if CALLBACK_PARAM not in positional:
            continue
        index = positional.index(CALLBACK_PARAM)
        if index < len(call.args):
            callback_args.append(call.args[index])
    if not callback_args and isinstance(call.func, ast.Attribute):
        # Unresolvable receiver (engine of unknown type): fall back to
        # the Engine.schedule/schedule_at positional convention.
        if call.func.attr in SCHEDULE_CALLEES and len(call.args) >= 2:
            callback_args.append(call.args[1])
    for keyword in call.keywords:
        if keyword.arg == CALLBACK_PARAM:
            callback_args.append(keyword.value)
    for arg in callback_args:
        for target in _callback_targets(graph, modname, caller, arg):
            seeds.setdefault(target, target)


def _callback_targets(
    graph: ProjectGraph,
    modname: str,
    caller: FunctionInfo,
    expr: ast.AST,
) -> Set[str]:
    """Project functions a callback expression can invoke at dispatch."""
    if isinstance(expr, ast.Lambda):
        targets: Set[str] = set()
        for node in ast.walk(expr.body):
            if isinstance(node, ast.Call):
                targets.update(_resolve_call(graph, modname, caller, node.func))
        return targets
    if isinstance(expr, (ast.Name, ast.Attribute)):
        return _resolve_call(graph, modname, caller, expr)
    return set()


def _close_hot_set(graph: ProjectGraph, seeds: Dict[str, str]) -> None:
    pending = [(qname, seed) for qname, seed in sorted(seeds.items())]
    while pending:
        qname, seed = pending.pop()
        if qname in graph.hot:
            continue
        graph.hot[qname] = seed
        for callee in sorted(graph.calls.get(qname, ())):
            if callee not in graph.hot:
                pending.append((callee, seed))
