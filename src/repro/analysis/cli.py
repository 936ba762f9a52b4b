"""``repro-lint``: the command-line front end of simlint.

Usage::

    repro-lint src/repro              # text report, exit 1 on findings
    repro-lint --explain HOT001       # one rule's full documentation
    repro-lint --list-rules           # rule pack documentation

Exit codes are CI-friendly: ``0`` clean, ``1`` findings, ``2`` usage or
internal error — the same contract as ruff/mypy, so the static-analysis
job can chain the three tools with plain shell ``&&``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from repro.analysis.framework import RULE_REGISTRY, run_lint

# Import for the registration side effect: the rule packs populate
# RULE_REGISTRY when this module is first loaded.
import repro.analysis.rules  # noqa: F401  (registration side effect)
import repro.analysis.contracts  # noqa: F401  (registration side effect)

#: Exit codes (mirrors ruff: 0 clean, 1 findings, 2 tool/usage error).
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    """The repro-lint argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based determinism & invariant analyzer for the repro codebase.",
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint (e.g. src/repro)"
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        help="print one rule's full documentation and exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule with its rationale and exit",
    )
    return parser


def _print_rules() -> None:
    for name in sorted(RULE_REGISTRY):
        rule = RULE_REGISTRY[name]
        print(f"{name}: {rule.summary}")
        if rule.rationale:
            print(f"    {rule.rationale}")


def _explain_rule(name: str) -> int:
    cls = RULE_REGISTRY.get(name)
    if cls is None:
        print(
            f"repro-lint: error: unknown rule {name!r} "
            f"(known: {', '.join(sorted(RULE_REGISTRY))})",
            file=sys.stderr,
        )
        return EXIT_ERROR
    print(f"{cls.name}: {cls.summary}")
    print()
    print(cls.rationale or "(no extended rationale)")
    print()
    print("suppress a deliberate exemption inline with:")
    print(f"    offending_code()  # simlint: disable={cls.name} -- why this is safe")
    return EXIT_CLEAN


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        _print_rules()
        return EXIT_CLEAN
    if args.explain:
        return _explain_rule(args.explain)
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro-lint: error: no paths given", file=sys.stderr)
        return EXIT_ERROR
    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        # A typo'd path must fail loudly: "0 findings in 0 file(s)"
        # would let the CI gate pass without checking anything.
        for path in missing:
            print(f"repro-lint: error: no such file or directory: {path}", file=sys.stderr)
        return EXIT_ERROR
    try:
        report = run_lint(args.paths)
    except OSError as error:
        print(f"repro-lint: error: {error}", file=sys.stderr)
        return EXIT_ERROR
    for finding in report.findings:
        print(finding.render())
    noun = "finding" if len(report.findings) == 1 else "findings"
    print(f"repro-lint: {len(report.findings)} {noun} in {report.files_checked} file(s)")
    return EXIT_CLEAN if report.clean else EXIT_FINDINGS


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
