"""The hot-core contract rules.

The simulator's hot core (``docs/PERFORMANCE.md``) rests on conventions
that would otherwise be prose plus equivalence tests.  These rules
machine-check them, one module at a time:

========  =============================================================
HOT001    no record-dataclass / dict-per-event allocation inside any
          non-dunder function of the five hot-path modules
          (``transfer`` / ``peer`` / ``strategy`` /
          ``exchange_manager`` / ``irq``)
NUM001    byte-identity reductions in the collector and in every
          module whose float sums feed a summary, a draw table or a
          figure: no ``np.sum`` / ``math.fsum`` / method reductions
          and no builtin ``sum()``; float sums are ``+=`` left folds
VER001    methods of version-fingerprinted classes that mutate
          ``self`` containers in place must bump ``self.version``
========  =============================================================

Like the v1 pack the rules are syntactic; each documents the
receiver/shape heuristics it relies on, and deliberate exemptions are
sanctioned inline with ``# simlint: disable=RULE -- why``.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.analysis.framework import (
    Finding,
    ParsedModule,
    Rule,
    dotted_name,
    node_finding,
    register_rule,
)

#: File basenames whose functions HOT001 polices.  Matching on
#: the basename (not the repo path) keeps the rule testable on fixture
#: files in temp directories.
HOT_PATH_BASENAMES = frozenset(
    {"transfer.py", "peer.py", "strategy.py", "exchange_manager.py", "irq.py"}
)

#: File basenames under the NUM001 byte-identity contract: the
#: collector's fold, and every module whose float sums feed a summary,
#: a draw table or a figure.
NUMERIC_BASENAMES = frozenset(
    {
        "columnar.py",
        "summary.py",
        "popularity.py",
        "interests.py",
        "strategy.py",
        "report.py",
    }
)

#: Reduction attribute names banned on a numpy-module receiver.
NUMPY_REDUCTIONS = frozenset(
    {"sum", "nansum", "mean", "nanmean", "prod", "dot", "cumsum", "average"}
)

#: In-place mutator method names VER001 watches on ``self`` containers.
CONTAINER_MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "discard",
        "clear",
        "update",
        "setdefault",
    }
)


def _basename(module: ParsedModule) -> str:
    return os.path.basename(module.display_path)


def _own_body_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Every node of a function's own body, skipping nested defs.

    Lambda bodies *are* walked (they execute as part of the enclosing
    function's logic once invoked); nested ``def``/``class`` bodies are
    not: HOT001 checks a nested ``def`` as a function of its own.
    """
    body = getattr(func, "body", [])
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


_Function = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _functions(node: ast.AST, prefix: str = "") -> Iterator[Tuple[str, _Function]]:
    """Every function under ``node`` with its dotted name, nested defs included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _functions(child, f"{prefix}{child.name}.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}{child.name}.")
        else:
            yield from _functions(child, prefix)


_HOIST = "hoist it or use the columnar scalar API"
_SCALARS = "pass scalars to the columnar add_* API instead"


@register_rule
class HotPathAllocationRule(Rule):
    """HOT001: no per-event record/dict allocation on hot paths."""

    name = "HOT001"
    summary = (
        "no record-dataclass or dict allocation inside functions of the "
        "hot-path modules"
    )
    rationale = (
        "The columnar core exists because a 50k-peer run fires millions of "
        "events; one dict or record object per event is exactly the "
        "allocation profile it removed (docs/PERFORMANCE.md).  The modules "
        "in HOT_PATH_BASENAMES (transfer, peer, strategy, exchange_manager "
        "and irq) hold the exchange machinery that event callbacks run: "
        "IRQ registration, ring search and the token pass, block transfers "
        "and strategy revisions.  In every function of those modules -- "
        "methods, property getters and nested defs, with a lambda's body "
        "counted toward its enclosing function -- the rule flags dict "
        "displays, dict() calls, dict comprehensions and *Record(...) "
        "constructions.  Dunder methods (__init__ and friends) are exempt: "
        "they run per entity, not per event.  Deliberate small allocations "
        "carry an inline suppression explaining the amortization argument."
    )

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        """Flag per-event allocations in the functions of hot-path modules."""
        if _basename(module) not in HOT_PATH_BASENAMES:
            return
        for label, func in _functions(module.tree):
            if func.name.startswith("__") and func.name.endswith("__"):
                continue
            for node in _own_body_nodes(func):
                allocation = self._allocation(node)
                if allocation is not None:
                    what, advice = allocation
                    yield node_finding(
                        self, module, node, f"{what} in hot function '{label}'; {advice}"
                    )

    @staticmethod
    def _allocation(node: ast.AST) -> Optional[Tuple[str, str]]:
        """What ``node`` allocates and the advice for it, or None."""
        if isinstance(node, ast.Dict):
            return "dict allocated", _HOIST
        if isinstance(node, ast.DictComp):
            return "dict comprehension", _HOIST
        if not isinstance(node, ast.Call):
            return None
        callee = dotted_name(node.func)
        final = callee.rsplit(".", 1)[-1] if callee else None
        if final == "dict":
            return "dict() allocated", _HOIST
        if final is not None and final.endswith("Record") and final[0].isupper():
            return f"per-event record object ('{final}')", _SCALARS
        return None


@register_rule
class NumericReductionRule(Rule):
    """NUM001: byte-identity reductions behind the pinned values."""

    name = "NUM001"
    summary = (
        "float sums behind summaries, draw tables and figures must be += "
        "left folds — np.sum/math.fsum/.sum() and builtin sum() are banned"
    )
    rationale = (
        "The pins hold one value on every Python only if every float sum "
        "behind a summary, a draw table or a figure is the left fold the "
        "golden tables were recorded with, and float addition is not "
        "associative: np.sum's pairwise reduction and math.fsum's exact "
        "summation both round differently from that left fold, and so does "
        "builtin sum() over floats from CPython 3.12, which adds Neumaier "
        "compensation (sum([1.0, 1.0], 1e16) is 1e16 on 3.11 and "
        "1.0000000000000002e16 on 3.12) -- sum(values, 0.0) is not the "
        "left fold either.  In the modules listed in NUMERIC_BASENAMES (the "
        "collector, summary, popularity, interests, strategy and report "
        "modules) the rule bans numpy/math reduction calls, ndarray .sum() "
        "methods and every builtin sum() call; accumulate with += in a "
        "fixed order.  Integer tallies, where no rounding occurs, may be "
        "suppressed inline with that argument."
    )

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        """Flag reordered reductions in the modules behind pinned values."""
        if _basename(module) not in NUMERIC_BASENAMES:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func)
            if callee is not None and "." in callee:
                receiver, final = callee.rsplit(".", 1)
                if receiver in ("np", "numpy") and final in NUMPY_REDUCTIONS:
                    yield node_finding(
                        self,
                        module,
                        node,
                        f"{callee}() reorders the reduction; accumulate with "
                        "+= in record order",
                    )
                    continue
            if callee in ("math.fsum", "fsum"):
                yield node_finding(
                    self,
                    module,
                    node,
                    "math.fsum() rounds differently from the record-"
                    "order left fold; accumulate with += in record order",
                )
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr == "sum":
                receiver_name = dotted_name(node.func.value)
                if receiver_name not in ("np", "numpy", "math", "builtins"):
                    yield node_finding(
                        self,
                        module,
                        node,
                        ".sum() method reductions are pairwise on ndarrays; "
                        "accumulate with += in record order",
                    )
                    continue
            if callee in ("sum", "builtins.sum"):
                yield node_finding(
                    self,
                    module,
                    node,
                    "builtin sum() compensates float sums from CPython 3.12, "
                    "so it is not the left fold; accumulate with += in "
                    "record order (suppress inline for an integer tally)",
                )


def _attr_store_targets(node: ast.AST) -> List[ast.Attribute]:
    """Plain attribute targets of an assignment-like statement."""
    targets: List[ast.AST] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    out: List[ast.Attribute] = []
    for target in targets:
        if isinstance(target, ast.Tuple):
            out.extend(e for e in target.elts if isinstance(e, ast.Attribute))
        elif isinstance(target, ast.Attribute):
            out.append(target)
    return out


@register_rule
class VersionBumpRule(Rule):
    """VER001: versioned containers bump on every in-place mutation path."""

    name = "VER001"
    summary = (
        "methods of version-fingerprinted classes that mutate self "
        "containers in place must bump self.version"
    )
    rationale = (
        "Version-keyed caches (the IRQ's FIFO snapshot and sorted key "
        "array, the request-tree snapshot) key off version fingerprints "
        "such as IncomingRequestQueue.version.  A mutation that skips the "
        "bump makes a cached value stale while its key still matches — the "
        "'structurally impossible' case PERFORMANCE.md relies on.  The "
        "rule applies to any class whose __init__ assigns "
        "self.version; in its other methods, subscript stores/deletes on "
        "self attributes and in-place mutator calls (append/add/pop/...) "
        "rooted at self require a self.version bump somewhere in the same "
        "method.  Rebinding a whole attribute is not counted (the "
        "compaction idiom builds a fresh equal-content object), and "
        "version-keyed cache attributes are sanctioned inline where they "
        "are written."
    )

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        """Flag unbumped in-place mutations in versioned classes."""
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and self._is_versioned(node):
                findings.extend(self._check_class(module, node))
        return findings

    @staticmethod
    def _is_versioned(cls: ast.ClassDef) -> bool:
        for item in cls.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name == "__init__"
            ):
                for node in ast.walk(item):
                    for target in _attr_store_targets(node):
                        if (
                            target.attr == "version"
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            return True
        return False

    def _check_class(
        self, module: ParsedModule, cls: ast.ClassDef
    ) -> Iterable[Finding]:
        for item in cls.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if item.name == "__init__":
                continue
            mutations = list(self._self_mutations(item))
            if mutations and not self._bumps_version(item):
                for node, attr in mutations:
                    yield node_finding(
                        self,
                        module,
                        node,
                        f"in-place mutation of self.{attr} in "
                        f"'{cls.name}.{item.name}' without a self.version "
                        "bump — version-keyed snapshots would serve "
                        "stale entries",
                    )

    @staticmethod
    def _self_attr_root(node: ast.AST) -> Optional[str]:
        """``self.X`` root attribute under Subscript/Call/Attribute layers."""
        while True:
            if isinstance(node, ast.Subscript):
                node = node.value
            elif isinstance(node, ast.Call):
                node = node.func
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id == "self":
                    return node.attr
                node = node.value
            else:
                return None

    def _self_mutations(
        self, func: ast.AST
    ) -> Iterable[Tuple[ast.AST, str]]:
        for node in _own_body_nodes(func):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        attr = self._self_attr_root(target.value)
                        if attr is not None and attr != "version":
                            yield target, attr
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        attr = self._self_attr_root(target.value)
                        if attr is not None:
                            yield target, attr
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in CONTAINER_MUTATORS
                ):
                    attr = self._self_attr_root(node.func.value)
                    if attr is not None:
                        yield node, attr

    @staticmethod
    def _bumps_version(func: ast.AST) -> bool:
        for node in _own_body_nodes(func):
            for target in _attr_store_targets(node):
                if (
                    target.attr == "version"
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    return True
        return False
