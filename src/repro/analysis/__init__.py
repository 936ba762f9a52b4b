"""simlint: AST-based determinism & invariant analysis for this repo.

The package has two consumers in mind:

* the ``repro-lint`` CLI (:mod:`repro.analysis.cli`), which runs the
  registered rule pack (:mod:`repro.analysis.rules`) over ``src/repro``
  in CI and locally, and
* other AST tooling in the repository — ``tests/test_docstrings.py``
  reuses :func:`missing_docstrings` / :func:`iter_python_files` so the
  repo keeps exactly one AST toolkit.

See ``docs/DETERMINISM.md`` for what each rule protects and why.
"""

from repro.analysis.framework import (
    RULE_REGISTRY,
    Finding,
    LintReport,
    ParsedModule,
    Rule,
    default_rules,
    dotted_name,
    iter_python_files,
    missing_docstrings,
    parse_module,
    register_rule,
    run_lint,
)
from repro.analysis import rules as _rules  # noqa: F401  (rule registration)
from repro.analysis import contracts as _contracts  # noqa: F401  (rule registration)
from repro.analysis.cli import main

__all__ = [
    "Finding",
    "LintReport",
    "ParsedModule",
    "Rule",
    "RULE_REGISTRY",
    "default_rules",
    "dotted_name",
    "iter_python_files",
    "main",
    "missing_docstrings",
    "parse_module",
    "register_rule",
    "run_lint",
]
