"""The columnar hot-core contract rules (simlint v2).

PR 7's columnar core (``docs/PERFORMANCE.md``) rests on conventions
that were previously prose plus equivalence tests.  These rules
machine-check them, using the project-wide call graph from
:mod:`repro.analysis.project` where per-event reachability matters:

========  =============================================================
HOT001    no record-dataclass / dict-per-event allocation inside
          hot-set functions of the five hot-path modules
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
from typing import Iterable, List, Optional, Tuple

from repro.analysis.framework import (
    Finding,
    ParsedModule,
    Project,
    Rule,
    dotted_name,
    node_finding,
    register_rule,
)
from repro.analysis.project import (
    FunctionInfo,
    ProjectGraph,
    _own_body_nodes,
    project_graph,
)

#: File basenames whose hot-set functions HOT001 polices.  Matching on
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


@register_rule
class HotPathAllocationRule(Rule):
    """HOT001: no per-event record/dict allocation on hot paths."""

    name = "HOT001"
    summary = (
        "no record-dataclass or dict allocation inside Engine-dispatch-"
        "reachable functions of the hot-path modules"
    )
    rationale = (
        "The columnar core exists because a 50k-peer run fires millions of "
        "events; one dict or record object per event is exactly the "
        "allocation profile it removed (docs/PERFORMANCE.md).  The hot set "
        "is computed from the project call graph: every function reachable "
        "from a callback handed to Engine.schedule/schedule_at (directly or "
        "through a callback= parameter such as PeriodicProcess's).  Within "
        "hot functions of transfer/peer/strategy/exchange_manager/irq the "
        "rule flags dict displays, dict() calls, dict comprehensions and "
        "*Record(...) constructions.  Dunder methods (__init__ and "
        "friends) are exempt: they run per entity, not per event.  "
        "Deliberate small allocations carry an inline suppression "
        "explaining the amortization argument."
    )

    def finalize(self, project: Project) -> Iterable[Finding]:
        """Flag per-event allocations in hot functions of hot modules."""
        graph = project_graph(project)
        findings: List[Finding] = []
        for module in project.modules:
            if _basename(module) not in HOT_PATH_BASENAMES:
                continue
            for info in graph.functions_in(module):
                if not graph.is_hot(info.qname):
                    continue
                if info.bare.startswith("__") and info.bare.endswith("__"):
                    continue
                findings.extend(self._check_function(module, graph, info))
        return findings

    def _check_function(
        self,
        module: ParsedModule,
        graph: ProjectGraph,
        info: FunctionInfo,
    ) -> Iterable[Finding]:
        why = graph.hot_reason(info.qname)
        label = f"{info.cls}.{info.bare}" if info.cls else info.bare
        for node in _own_body_nodes(info.node):
            if isinstance(node, ast.Dict):
                yield node_finding(
                    self,
                    module,
                    node,
                    f"dict allocated in hot function '{label}' ({why}); "
                    "hoist it or use the columnar scalar API",
                )
            elif isinstance(node, ast.DictComp):
                yield node_finding(
                    self,
                    module,
                    node,
                    f"dict comprehension in hot function '{label}' ({why}); "
                    "hoist it or use the columnar scalar API",
                )
            elif isinstance(node, ast.Call):
                callee = dotted_name(node.func)
                final = callee.rsplit(".", 1)[-1] if callee else None
                if final == "dict":
                    yield node_finding(
                        self,
                        module,
                        node,
                        f"dict() allocated in hot function '{label}' ({why}); "
                        "hoist it or use the columnar scalar API",
                    )
                elif final is not None and final.endswith("Record") and final[0].isupper():
                    yield node_finding(
                        self,
                        module,
                        node,
                        f"per-event record object ('{final}') in hot function "
                        f"'{label}' ({why}); pass scalars to the columnar "
                        "add_* API instead",
                    )


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
                        "bump — version-keyed mask caches would serve "
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
