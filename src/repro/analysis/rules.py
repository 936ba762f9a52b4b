"""The simlint rule pack: determinism & invariant checks for ``src/repro``.

Every rule machine-checks a convention that the simulator's
reproducibility guarantees rest on (see ``docs/DETERMINISM.md`` for the
full rationale of each):

========  =============================================================
RNG001    no module-level ``random.*`` calls — all randomness flows
          through seeded :class:`~repro.sim.rng.RandomSource` streams
RNG002    every ``RandomSource`` draw names its ``stream=`` explicitly
DET001    no builtin ``hash()`` in simulation code (per-process salt)
DET002    no unordered (set / dict-view) iteration feeding RNG draws or
          event scheduling without an intervening ``sorted()``
DET003    no wall-clock reads outside explicitly annotated measurement
          sites
SCH001    events enter the engine heap only via the seq-tie-break API,
          never a raw ``heapq`` insert (``heappush``, ``heapreplace``,
          ``heappushpop``)
FPR001    every spec dataclass reachable from ``SimulationConfig`` is
          fully covered by the cache fingerprint
========  =============================================================

The hot-core contract rules (``HOT001``, ``NUM001``, ``VER001``) live
in :mod:`repro.analysis.contracts`.

The rules are syntactic: they see one AST, not runtime types, so each
documents the receiver/shape heuristics it relies on.  False positives
are expected to be rare and are silenced inline with a reasoned
``# simlint: disable=RULE -- why`` comment, which doubles as in-code
documentation of the exemption.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.framework import (
    Finding,
    ParsedModule,
    Rule,
    annotation_names,
    dotted_name,
    node_finding,
    register_rule,
)

#: Draw methods offered by :class:`repro.sim.rng.RandomSource`.
RANDOM_SOURCE_DRAWS = frozenset({"uniform_int", "sample"})
#: Draws whose names exist on RandomSource but not on ``random.Random``,
#: so they identify the receiver type by themselves.
RANDOM_SOURCE_ONLY_DRAWS = frozenset({"uniform_int"})
#: Receiver identifiers conventionally bound to a RandomSource.
RANDOM_SOURCE_NAMES = frozenset({"rng", "_rng"})

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

#: Annotation identifiers FPR001 accepts without further analysis.
FINGERPRINT_SAFE_NAMES = frozenset(
    {
        "int",
        "float",
        "str",
        "bool",
        "bytes",
        "None",
        "object",
        "Any",
        "Optional",
        "Union",
        "Tuple",
        "tuple",
        "List",
        "list",
        "Dict",
        "dict",
        "Sequence",
        "Mapping",
        "Iterable",
        "ClassVar",
    }
)
#: Unordered container types that must never appear in a fingerprinted
#: field annotation — their iteration order would leak into the hash.
FINGERPRINT_UNORDERED_TYPES = frozenset({"set", "Set", "frozenset", "FrozenSet"})


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
class ExplicitStreamRule(Rule):
    """RNG002: RandomSource draws must name their stream."""

    name = "RNG002"
    summary = "every RandomSource draw passes an explicit stream= name"
    rationale = (
        "A draw that falls back to the 'default' stream silently couples "
        "unrelated subsystems through one sequence: adding a draw in one "
        "place perturbs every other default-stream consumer.  Naming the "
        "stream at the call site keeps subsystems independent and makes the "
        "coupling reviewable.  Receivers are inferred syntactically: names "
        "bound from RandomSource(...), parameters annotated RandomSource, "
        "identifiers named rng/_rng (or attributes ending in them), plus "
        "the RandomSource-only method name uniform_int."
    )

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        """Flag RandomSource draws that omit an explicit ``stream=``."""
        sources = self._random_source_names(module.tree)
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in RANDOM_SOURCE_DRAWS:
                continue
            if any(kw.arg == "stream" for kw in node.keywords):
                continue
            receiver = func.value
            if func.attr not in RANDOM_SOURCE_ONLY_DRAWS and not self._is_random_source(
                receiver, sources
            ):
                continue
            findings.append(
                node_finding(
                    self,
                    module,
                    node,
                    f"RandomSource.{func.attr}() without an explicit stream= — "
                    "silent 'default' stream couples subsystems",
                )
            )
        return findings

    @staticmethod
    def _random_source_names(tree: ast.AST) -> Set[str]:
        """Identifiers bound to a RandomSource anywhere in the module."""
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                callee = dotted_name(node.value.func)
                if callee is not None and callee.endswith("RandomSource"):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
            elif isinstance(node, ast.arg):
                refs = annotation_names(node.annotation)
                if "RandomSource" in refs:
                    names.add(node.arg)
        return names

    @staticmethod
    def _is_random_source(receiver: ast.AST, sources: Set[str]) -> bool:
        name = dotted_name(receiver)
        if name is None:
            return False
        last = name.rsplit(".", 1)[-1]
        if last in RANDOM_SOURCE_NAMES:
            return True
        return "." not in name and name in sources


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


@dataclass
class _DataclassInfo:
    """What FPR001 needs to know about one dataclass definition."""

    name: str
    module: ParsedModule
    lineno: int
    fields: List[Tuple[str, int, Set[str]]] = field(default_factory=list)
    to_dict_strings: Optional[Set[str]] = None  #: None = no custom to_dict


@register_rule
class FingerprintCoverageRule(Rule):
    """FPR001: config specs must be fully fingerprint-covered."""

    name = "FPR001"
    summary = "every spec dataclass reachable from SimulationConfig is fingerprinted"
    rationale = (
        "The experiment cache is keyed by a hash of SimulationConfig.to_dict(); "
        "a config knob that escapes the dict makes two different experiments "
        "share one cache entry — silently wrong results (the population field "
        "once did exactly this, hence CACHE_SCHEMA_VERSION).  The rule walks "
        "field annotations transitively from SimulationConfig, expanding "
        "module-level Union/tuple aliases, and requires every reachable type "
        "to be an analyzable dataclass whose fields all reach the dict: "
        "dataclasses.asdict covers everything automatically, but a class "
        "with a hand-written to_dict must mention every field name, and "
        "unordered containers (set/frozenset) may not appear in fingerprinted "
        "annotations at all.  An intentionally excluded field carries an "
        "inline suppression on its declaration line."
    )

    #: Class name the reachability walk starts from.
    ROOT_CLASS = "SimulationConfig"

    def __init__(self) -> None:
        self._dataclasses: Dict[str, _DataclassInfo] = {}
        self._plain_classes: Dict[str, Tuple[ParsedModule, int]] = {}
        self._aliases: Dict[str, Set[str]] = {}

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        """Record spec dataclasses and fingerprint wiring in this module."""
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                self._collect_class(module, node)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    refs = annotation_names(node.value)
                    if refs:
                        self._aliases.setdefault(target.id, set()).update(refs)
        return ()

    def _collect_class(self, module: ParsedModule, node: ast.ClassDef) -> None:
        if not self._is_dataclass(node):
            self._plain_classes.setdefault(node.name, (module, node.lineno))
            return
        info = _DataclassInfo(node.name, module, node.lineno)
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                refs = annotation_names(item.annotation)
                if "ClassVar" in refs:
                    continue
                info.fields.append((item.target.id, item.lineno, refs))
            elif isinstance(item, ast.FunctionDef) and item.name == "to_dict":
                # A to_dict built on dataclasses.asdict covers every
                # field by construction; only hand-enumerated dicts
                # need per-field coverage checking.
                uses_asdict = any(
                    isinstance(sub, ast.Call)
                    and (dotted_name(sub.func) or "").rsplit(".", 1)[-1] == "asdict"
                    for sub in ast.walk(item)
                )
                if uses_asdict:
                    info.to_dict_strings = None
                    continue
                strings = {
                    sub.value
                    for sub in ast.walk(item)
                    if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
                }
                info.to_dict_strings = strings
        self._dataclasses.setdefault(node.name, info)

    @staticmethod
    def _is_dataclass(node: ast.ClassDef) -> bool:
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = dotted_name(target)
            if name in ("dataclass", "dataclasses.dataclass"):
                return True
        return False

    def finalize(self) -> Iterable[Finding]:
        """Check every spec reachable from the root is fingerprint-covered."""
        if self.ROOT_CLASS not in self._dataclasses:
            return ()
        findings: List[Finding] = []
        seen: Set[str] = set()
        queue = [self.ROOT_CLASS]
        while queue:
            info = self._dataclasses[queue.pop()]
            if info.name in seen:
                continue
            seen.add(info.name)
            for field_name, lineno, refs in info.fields:
                if info.to_dict_strings is not None and field_name not in info.to_dict_strings:
                    findings.append(
                        Finding(
                            self.name,
                            info.module.display_path,
                            lineno,
                            1,
                            f"{info.name}.{field_name} is missing from the custom "
                            "to_dict() — the cache fingerprint cannot see it "
                            "(suppress on this line if the exclusion is intended)",
                        )
                    )
                findings.extend(self._check_refs(info, field_name, lineno, refs, queue))
        return findings

    def _check_refs(
        self,
        info: _DataclassInfo,
        field_name: str,
        lineno: int,
        refs: Set[str],
        queue: List[str],
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        expanded: Set[str] = set()
        pending = list(refs)
        while pending:
            ref = pending.pop()
            if ref in expanded:
                continue
            expanded.add(ref)
            if ref in self._aliases and ref not in self._dataclasses:
                pending.extend(self._aliases[ref])
                continue
            if ref in FINGERPRINT_UNORDERED_TYPES:
                findings.append(
                    Finding(
                        self.name,
                        info.module.display_path,
                        lineno,
                        1,
                        f"{info.name}.{field_name} is typed with unordered "
                        f"container {ref!r} — iteration order would leak into "
                        "the cache fingerprint",
                    )
                )
            elif ref in self._dataclasses:
                queue.append(ref)
            elif ref in self._plain_classes:
                findings.append(
                    Finding(
                        self.name,
                        info.module.display_path,
                        lineno,
                        1,
                        f"{info.name}.{field_name} references {ref}, which is "
                        "not a dataclass — dataclasses.asdict cannot fingerprint "
                        "its contents",
                    )
                )
            elif ref not in FINGERPRINT_SAFE_NAMES:
                findings.append(
                    Finding(
                        self.name,
                        info.module.display_path,
                        lineno,
                        1,
                        f"{info.name}.{field_name} references {ref}, which simlint "
                        "cannot resolve to a fingerprint-analyzable dataclass",
                    )
                )
        return findings
