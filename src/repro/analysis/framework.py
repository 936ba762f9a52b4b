"""Core machinery of ``simlint``: findings, modules, suppressions, runner.

The framework is deliberately small and reusable: a :class:`Rule` is a
class with a ``name`` and a ``check_module`` hook, registered through
:func:`register_rule`; :func:`run_lint` parses each target file once
into a :class:`ParsedModule` and runs every rule over it.  The AST
helpers at the bottom (:func:`dotted_name`, :func:`missing_docstrings`,
...) are shared with other consumers — ``tests/test_docstrings.py``
reuses them so the repo has exactly one AST toolkit.

Suppressions
------------
A finding is silenced inline with::

    some_code()  # simlint: disable=RULE1,RULE2 -- why this is safe

The ``-- reason`` part is mandatory: an unexplained suppression is
itself reported (rule ``SUP001``) because a bare "disable" comment is
exactly the kind of convention rot this tool exists to prevent.  A
suppression comment on its own line applies to the next code line;
otherwise it applies to its own line (for multi-line statements, anchor
the comment on the statement's first line, where the AST node starts).
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

#: Rule id used for malformed suppression comments (not suppressible).
SUPPRESSION_RULE = "SUP001"
#: Rule id used for files that fail to parse (not suppressible).
SYNTAX_RULE = "SYN001"

# The reason group is lazy (not ``.*\S``) so a whitespace-only reason
# still parses and is reported as "without a reason" rather than as an
# unparseable comment — the actionable message for the likelier typo.
_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*disable=(?P<rules>[A-Za-z0-9_,\s]+?)"
    r"(?:\s*--\s*(?P<reason>.*?))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One lint violation at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        """Stable ordering: by file, then position, then rule id."""
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        """Human-readable one-liner, ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# simlint: disable=...`` comment."""

    line: int  #: line the suppression *applies to* (not necessarily its own)
    rules: Tuple[str, ...]
    reason: str


class ParsedModule:
    """One source file: display path, text, AST, and its inline suppressions."""

    def __init__(self, path: str, display_path: str, source: str) -> None:
        self.display_path = display_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        #: applies-to line -> suppression
        self.suppressions: Dict[int, Suppression] = {}
        #: malformed-suppression findings discovered while parsing comments
        self.meta_findings: List[Finding] = []
        self._parse_suppressions()
        self._extend_to_decorated_defs()

    def _iter_comments(self) -> Iterator[Tuple[int, int, str]]:
        """``(line, col, text)`` for every real comment token.

        Tokenizing (rather than scanning raw lines) keeps suppression
        syntax inside string literals — docstrings documenting the
        feature, for instance — from being parsed as suppressions.
        """
        reader = io.StringIO(self.source).readline
        try:
            for token in tokenize.generate_tokens(reader):
                if token.type == tokenize.COMMENT:
                    yield token.start[0], token.start[1], token.string
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            return

    def _parse_suppressions(self) -> None:
        for lineno, col_offset, text in self._iter_comments():
            match = _SUPPRESS_RE.search(text)
            if match is None:
                if "simlint:" in text and "disable" in text:
                    self.meta_findings.append(
                        Finding(
                            SUPPRESSION_RULE,
                            self.display_path,
                            lineno,
                            col_offset + 1,
                            "unparseable simlint suppression comment "
                            "(expected '# simlint: disable=RULE -- reason')",
                        )
                    )
                continue
            rules = tuple(
                part.strip() for part in match.group("rules").split(",") if part.strip()
            )
            reason = (match.group("reason") or "").strip()
            col = col_offset + match.start() + 1
            if not rules:
                self.meta_findings.append(
                    Finding(
                        SUPPRESSION_RULE,
                        self.display_path,
                        lineno,
                        col,
                        "suppression names no rules",
                    )
                )
                continue
            if not reason:
                self.meta_findings.append(
                    Finding(
                        SUPPRESSION_RULE,
                        self.display_path,
                        lineno,
                        col,
                        "suppression without a reason — append ' -- why this is safe' "
                        f"(rules: {', '.join(rules)})",
                    )
                )
                continue
            # A comment alone on its line shields the next line; a
            # trailing comment shields its own.
            code_before = self.lines[lineno - 1][:col_offset].strip()
            applies_to = lineno if code_before else lineno + 1
            self.suppressions[applies_to] = Suppression(applies_to, rules, reason)

    def _extend_to_decorated_defs(self) -> None:
        """Let a suppression above a decorator shield the decorated def.

        A standalone suppression comment applies to the next line; for
        a decorated function or class that next line is the first
        decorator, while rules anchor their findings at the ``def`` /
        ``class`` line.  Alias any suppression that lands on a
        decorator line onto the definition's own line so the natural
        comment placement (directly above the decorator stack) works.
        """
        for node in ast.walk(self.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for decorator in node.decorator_list:
                suppression = self.suppressions.get(decorator.lineno)
                if suppression is not None and node.lineno not in self.suppressions:
                    self.suppressions[node.lineno] = Suppression(
                        node.lineno, suppression.rules, suppression.reason
                    )

    def is_suppressed(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is inline-suppressed for findings on ``line``."""
        suppression = self.suppressions.get(line)
        return suppression is not None and rule in suppression.rules


class Rule:
    """Base class for lint rules.

    Subclasses set ``name`` / ``summary`` / ``rationale`` and override
    :meth:`check_module`.  A rule sees one module at a time, so linting
    one file gives the findings a whole-tree run gives in that file.
    """

    name: str = "RULE"
    summary: str = ""
    rationale: str = ""

    def check_module(self, module: ParsedModule) -> Iterable[Finding]:
        """Findings local to one module (default: none)."""
        return ()


#: Global registry: rule name -> rule class.
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to :data:`RULE_REGISTRY`."""
    if not cls.name or cls.name in RULE_REGISTRY:
        raise ValueError(f"duplicate or empty rule name: {cls.name!r}")
    RULE_REGISTRY[cls.name] = cls
    return cls


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in name order."""
    return [RULE_REGISTRY[name]() for name in sorted(RULE_REGISTRY)]


def node_finding(rule: Rule, module: ParsedModule, node: ast.AST, message: str) -> Finding:
    """A ``rule`` finding anchored at ``node``'s position in ``module``."""
    return Finding(
        rule.name,
        module.display_path,
        getattr(node, "lineno", 1),
        getattr(node, "col_offset", 0) + 1,
        message,
    )


# ----------------------------------------------------------------------
# file collection / parsing
# ----------------------------------------------------------------------
def iter_python_files(root: str) -> List[str]:
    """Every ``*.py`` under ``root`` (or ``root`` itself), sorted.

    ``__pycache__`` directories are skipped.  A single-file root is
    returned as-is so the CLI accepts files and directories alike.
    """
    if os.path.isfile(root):
        return [root]
    paths: List[str] = []
    for directory, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                paths.append(os.path.join(directory, name))
    return sorted(paths)


def parse_module(path: str, display_path: Optional[str] = None) -> ParsedModule:
    """Read and parse one file into a :class:`ParsedModule`."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    return ParsedModule(path, display_path or _display_path(path), source)


def _display_path(path: str) -> str:
    rel = os.path.relpath(path)
    # Stay stable across platforms so findings and test expectations
    # never depend on the host's separator.
    return rel.replace(os.sep, "/")


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """Outcome of one :func:`run_lint` call."""

    findings: List[Finding]
    files_checked: int

    @property
    def clean(self) -> bool:
        """True when no findings survived suppression."""
        return not self.findings


def run_lint(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint every Python file under ``paths`` with the given rules.

    Each module is parsed and checked by every rule in turn; findings
    on the module's inline-suppressed lines are dropped.  Malformed
    suppressions (``SUP001``) and files that fail to parse (``SYN001``)
    are reported and cannot themselves be suppressed.
    """
    if rules is None:
        rules = default_rules()
    files_checked = 0
    findings: List[Finding] = []
    for root in paths:
        for file_path in iter_python_files(root):
            try:
                module = parse_module(file_path)
            except SyntaxError as error:
                findings.append(
                    Finding(
                        SYNTAX_RULE,
                        _display_path(file_path),
                        error.lineno or 1,
                        (error.offset or 0) + 1,
                        f"syntax error: {error.msg}",
                    )
                )
                continue
            files_checked += 1
            findings.extend(module.meta_findings)
            for rule in rules:
                findings.extend(
                    finding
                    for finding in rule.check_module(module)
                    if not module.is_suppressed(finding.rule, finding.line)
                )
    findings.sort(key=lambda f: f.sort_key)
    return LintReport(findings=findings, files_checked=files_checked)


# ----------------------------------------------------------------------
# shared AST utilities
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, or None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# ----------------------------------------------------------------------
# docstring audit (shared with tests/test_docstrings.py)
# ----------------------------------------------------------------------
def missing_docstrings(tree: ast.Module) -> List[Tuple[int, str]]:
    """``(line, label)`` for every public definition without a docstring.

    Mirrors ruff's D100-D104/D106 scope: the module itself, public
    classes (including nested ones), and public functions/methods.
    Private (``_``-prefixed) functions and magic/``__init__`` methods
    are out of scope, matching the repo's lint configuration; private
    classes are still walked because they can hold public methods.
    """
    missing: List[Tuple[int, str]] = []
    if not ast.get_docstring(tree):
        missing.append((1, "module"))

    def walk(node: ast.AST, prefix: str = "") -> None:
        for item in getattr(node, "body", []):
            if isinstance(item, ast.ClassDef):
                public = not item.name.startswith("_")
                if public and not ast.get_docstring(item):
                    missing.append((item.lineno, f"class {prefix}{item.name}"))
                walk(item, prefix=f"{prefix}{item.name}.")
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if item.name.startswith("_"):
                    continue
                if not ast.get_docstring(item):
                    missing.append((item.lineno, f"def {prefix}{item.name}"))

    walk(tree)
    return missing
