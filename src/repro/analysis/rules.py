"""The simlint rule pack: determinism & invariant checks for ``src/repro``.

Every rule machine-checks a convention that the simulator's
reproducibility guarantees rest on (see ``docs/DETERMINISM.md`` for the
full rationale of each):

========  =============================================================
RNG001    no module-level ``random.*`` calls — all randomness flows
          through seeded :class:`~repro.sim.rng.RandomSource` streams
DET001    no builtin ``hash()`` in simulation code (per-process salt)
DET002    no unordered (set / dict-view) iteration feeding RNG draws or
          event scheduling without an intervening ``sorted()``
DET003    no wall-clock reads outside explicitly annotated measurement
          sites
SCH001    events enter the engine heap only via the seq-tie-break API,
          never a raw ``heapq`` insert (``heappush``, ``heapreplace``,
          ``heappushpop``)
========  =============================================================

The hot-core contract rules (``HOT001``, ``NUM001``, ``VER001``) live
in :mod:`repro.analysis.contracts`.

The rules are syntactic: each sees one module's AST, not runtime
types, so each documents the receiver/shape heuristics it relies on.  False positives
are expected to be rare and are silenced inline with a reasoned
``# simlint: disable=RULE -- why`` comment, which doubles as in-code
documentation of the exemption.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.analysis.framework import (
    Finding,
    ParsedModule,
    Rule,
    dotted_name,
    node_finding,
    register_rule,
)

#: Wall-clock callables banned by DET003 (dotted forms as written at
#: call sites under both ``import x`` and ``from x import y`` styles).
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.date.today",
        "date.today",
    }
)
#: Names whose ``from``-import already smuggles a wall-clock callable in.
WALL_CLOCK_FROM_IMPORTS = {
    "time": {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    },
}

@register_rule
class ModuleLevelRandomRule(Rule):
    """RNG001: ban the process-global ``random`` module's entropy."""

    name = "RNG001"
    summary = "no module-level random.* calls; thread RandomSource streams instead"
    rationale = (
        "The module-level random functions share one hidden global state: any "
        "draw from them couples every subsystem to every other and to import "
        "order, destroying replayability.  Only random.Random instances handed "
        "out by RandomSource.stream() are allowed (importing random for the "
        "random.Random type is fine)."
    )

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        """Flag module-import and call misuse of the global ``random`` module."""
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if (
                    name is not None
                    and name.startswith("random.")
                    and name != "random.Random"
                ):
                    findings.append(
                        node_finding(
                            self,
                            module,
                            node,
                            f"call to module-level {name}() — draw from a named "
                            "RandomSource stream instead",
                        )
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                banned = [a.name for a in node.names if a.name != "Random"]
                if banned:
                    findings.append(
                        node_finding(
                            self,
                            module,
                            node,
                            "from-import of module-level random state "
                            f"({', '.join(banned)}) — import random and use "
                            "random.Random via RandomSource",
                        )
                    )
        return findings


@register_rule
class BuiltinHashRule(Rule):
    """DET001: ban the salted builtin ``hash()``."""

    name = "DET001"
    summary = "no builtin hash() — it is salted per process"
    rationale = (
        "str/bytes hash() is randomized per interpreter process (PYTHONHASHSEED), "
        "so any seed, ordering or bucketing derived from it differs between "
        "runs and machines.  Seed derivation uses hashlib (see sim/rng.py); "
        "ordering uses explicit sort keys."
    )

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        """Flag calls to the salted builtin ``hash()``."""
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                findings.append(
                    node_finding(
                        self,
                        module,
                        node,
                        "builtin hash() is salted per process — use hashlib for "
                        "seed derivation or an explicit sort key for ordering",
                    )
                )
        return findings


#: Method names treated as "consumes iteration order" by DET002: RNG
#: draws, the engine scheduling API and the heap inserts.
_ORDER_SENSITIVE_CALLS = frozenset(
    {
        "sample",
        "choice",
        "shuffle",
        "schedule",
        "schedule_at",
        "schedule_every",
        "heappush",
        "heapreplace",
        "heappushpop",
    }
)
_DICT_VIEW_METHODS = frozenset({"keys", "values", "items"})


def _unordered_kind(node: ast.AST, tainted: Optional[Set[str]] = None) -> Optional[str]:
    """Why ``node`` evaluates to an unordered/fragile-order iterable.

    Returns a short description ("set(...)", "dict view .keys()", ...)
    or None.  ``sorted(...)`` wrapping makes anything ordered; a single
    ``list``/``tuple``/``iter`` wrapper is looked through because it
    preserves whatever order the inner expression has.  ``tainted``
    names are scope-local variables known to hold set values (see
    :meth:`UnorderedIterationRule._tainted_names`).
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal/comprehension"
    if tainted and isinstance(node, ast.Name) and node.id in tainted:
        return f"set-typed local {node.id!r}"
    if isinstance(node, ast.Call):
        callee = node.func
        if isinstance(callee, ast.Name):
            if callee.id in ("set", "frozenset"):
                return f"{callee.id}(...)"
            if callee.id in ("list", "tuple", "iter") and node.args:
                return _unordered_kind(node.args[0], tainted)
            return None
        if isinstance(callee, ast.Attribute) and callee.attr in _DICT_VIEW_METHODS:
            if not node.args and not node.keywords:
                return f"a dict view .{callee.attr}()"
    return None


@register_rule
class UnorderedIterationRule(Rule):
    """DET002: unordered iteration must not feed draws or scheduling."""

    name = "DET002"
    summary = "sorted() required between set/dict views and RNG draws or scheduling"
    rationale = (
        "Set iteration order depends on insertion history and string hashing; "
        "dict views are insertion-ordered but re-order under innocent "
        "refactors.  When such an iterable feeds an RNG draw (sample/choice/"
        "shuffle) or event scheduling, the replayed event sequence changes "
        "even though no seed did.  An intervening sorted() pins the order.  "
        "Checked shapes: the data argument of a draw call, and for-loops "
        "over an unordered expression whose body draws or schedules — "
        "including scope-local variables that are only ever assigned set "
        "values (simple flow-insensitive taint)."
    )

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        """Flag unordered set/dict iteration feeding RNG draws or scheduling."""
        findings: List[Finding] = []
        scopes: List[ast.AST] = [module.tree]
        scopes.extend(
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for scope in scopes:
            tainted = self._tainted_names(scope)
            for node in self._scope_nodes(scope):
                if isinstance(node, ast.Call):
                    findings.extend(self._check_draw_argument(module, node, tainted))
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    findings.extend(self._check_for_loop(module, node, tainted))
        return findings

    @staticmethod
    def _scope_nodes(scope: ast.AST) -> Iterable[ast.AST]:
        """Every node of ``scope`` excluding nested function bodies."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.extend(ast.iter_child_nodes(node))

    @classmethod
    def _tainted_names(cls, scope: ast.AST) -> Set[str]:
        """Local names that can only hold set values in this scope.

        Conservative on purpose: any other binding of the name (a
        non-set assignment, a loop target, a function parameter, an
        augmented assignment) clears it, so only unambiguous
        "this is a set" locals are reported.
        """
        set_assigned: Set[str] = set()
        otherwise_bound: Set[str] = set()

        def note(target: ast.AST, unordered: bool) -> None:
            if isinstance(target, ast.Name):
                (set_assigned if unordered else otherwise_bound).add(target.id)
            else:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        otherwise_bound.add(sub.id)

        for node in cls._scope_nodes(scope):
            if isinstance(node, ast.Assign):
                unordered = _unordered_kind(node.value) is not None
                for target in node.targets:
                    note(target, unordered)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                note(node.target, _unordered_kind(node.value) is not None)
            elif isinstance(node, ast.AugAssign):
                note(node.target, False)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                note(node.target, False)
            elif isinstance(node, ast.arg):
                otherwise_bound.add(node.arg)
        return set_assigned - otherwise_bound

    def _check_draw_argument(
        self, module: ParsedModule, node: ast.Call, tainted: Set[str]
    ) -> Iterable[Finding]:
        func = node.func
        method = None
        if isinstance(func, ast.Attribute):
            method = func.attr
        elif isinstance(func, ast.Name):
            method = func.id
        if method not in ("sample", "choice", "shuffle"):
            return ()
        if not node.args:
            return ()
        kind = _unordered_kind(node.args[0], tainted)
        if kind is None:
            return ()
        return (
            node_finding(
                self,
                module,
                node,
                f"{method}() over {kind} — wrap the iterable in sorted() so the "
                "draw sees a platform-stable order",
            ),
        )

    def _check_for_loop(
        self, module: ParsedModule, node: ast.stmt, tainted: Set[str]
    ) -> Iterable[Finding]:
        kind = _unordered_kind(node.iter, tainted)  # type: ignore[attr-defined]
        if kind is None:
            return ()
        for sub in ast.walk(node):
            if sub is node:
                continue
            if isinstance(sub, ast.Call):
                callee = sub.func
                name = (
                    callee.attr
                    if isinstance(callee, ast.Attribute)
                    else callee.id if isinstance(callee, ast.Name) else None
                )
                if name in _ORDER_SENSITIVE_CALLS:
                    return (
                        node_finding(
                            self,
                            module,
                            node,
                            f"iteration over {kind} feeds {name}() inside the loop "
                            "— iterate sorted(...) so replay order is pinned",
                        ),
                    )
        return ()


@register_rule
class WallClockRule(Rule):
    """DET003: wall-clock reads only at annotated measurement sites."""

    name = "DET003"
    summary = "wall-clock (time.time / perf_counter / datetime.now) is banned"
    rationale = (
        "Simulated time comes from the event heap; any wall-clock read that "
        "leaks into model logic makes runs machine-dependent.  The only "
        "sanctioned uses are wall-time *measurement* (runner/simulation "
        "timing) and cache-orphan aging (orchestrator) — each carries an "
        "inline '# simlint: disable=DET003 -- ...' annotation, so the "
        "allowlist is visible in the code, not buried in lint config."
    )

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        """Flag wall-clock reads outside the sanctioned allowlist."""
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in WALL_CLOCK_CALLS:
                    findings.append(
                        node_finding(
                            self,
                            module,
                            node,
                            f"wall-clock call {name}() — simulation logic must "
                            "use engine time; annotate measurement sites inline",
                        )
                    )
            elif isinstance(node, ast.ImportFrom):
                banned = WALL_CLOCK_FROM_IMPORTS.get(node.module or "")
                if banned:
                    hits = [a.name for a in node.names if a.name in banned]
                    if hits:
                        findings.append(
                            node_finding(
                                self,
                                module,
                                node,
                                f"from-import of wall-clock callable(s) "
                                f"{', '.join(hits)} — import the module and call "
                                "it at an annotated site",
                            )
                        )
        return findings


#: The ``heapq`` functions that insert an item into a heap.
_HEAP_INSERTS = frozenset({"heappush", "heapreplace", "heappushpop"})


@register_rule
class RawHeappushRule(Rule):
    """SCH001: the engine heap is fed only via the seq-tie-break API."""

    name = "SCH001"
    summary = (
        "no raw heapq.heappush/heapreplace/heappushpop — schedule via "
        "Engine.schedule/schedule_at/schedule_every"
    )
    rationale = (
        "Engine ordering is the (time, seq) total order: equal-time events "
        "fire in scheduling order because schedule_at (and the run loop's "
        "periodic re-arm) stamps a monotonically increasing sequence "
        "number.  A raw insert — heappush, or heapreplace/heappushpop, which "
        "push as well as pop — bypasses the stamp and makes equal-time "
        "ordering fall back to whatever the pushed payload happens to "
        "compare as — a silent replay hazard.  heapify/heappop over "
        "locally built lists (e.g. service disciplines) are fine; only "
        "inserts are gated."
    )

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        """Flag raw ``heapq`` inserts outside the engine tie-break API."""
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None and name.rsplit(".", 1)[-1] in _HEAP_INSERTS:
                    findings.append(
                        node_finding(
                            self,
                            module,
                            node,
                            f"raw {name.rsplit('.', 1)[-1]} bypasses the engine's "
                            "(time, seq) tie-break — use Engine.schedule/schedule_at",
                        )
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "heapq":
                hits = sorted(a.name for a in node.names if a.name in _HEAP_INSERTS)
                if hits:
                    findings.append(
                        node_finding(
                            self,
                            module,
                            node,
                            f"from-import of {', '.join(hits)} — push through "
                            "the engine's seq-tie-break API instead",
                        )
                    )
        return findings
