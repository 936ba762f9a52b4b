"""Framework-level tests for ``repro.analysis`` (simlint).

Rule-specific fixture tests live in ``tests/test_simlint_rules.py``;
this module covers the machinery every rule rides on: suppression
parsing, file collection, the runner, and the CLI contract (its three
entry points and exit codes) — including the "seeded violation"
negative test that guarantees the CI static-analysis job actually fails
when a determinism invariant is broken.
"""

from __future__ import annotations

import argparse
import os
import textwrap

from repro.analysis import RULE_REGISTRY, iter_python_files, parse_module, run_lint
from repro.analysis.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, build_parser, main
from repro.analysis.framework import SUPPRESSION_RULE, SYNTAX_RULE


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return str(path)


class TestSuppressionParsing:
    def test_trailing_comment_shields_its_own_line(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """\
            import time
            t = time.time()  # simlint: disable=DET003 -- test exemption
            """,
        )
        report = run_lint([path])
        assert report.clean

    def test_standalone_comment_shields_the_next_line(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """\
            import time
            # simlint: disable=DET003 -- test exemption
            t = time.time()
            """,
        )
        report = run_lint([path])
        assert report.clean

    def test_suppression_without_reason_is_reported(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """\
            import time
            t = time.time()  # simlint: disable=DET003
            """,
        )
        report = run_lint([path])
        rules = {f.rule for f in report.findings}
        # The reasonless suppression is invalid, so it must not shield
        # the wall-clock call either.
        assert SUPPRESSION_RULE in rules
        assert "DET003" in rules

    def test_suppression_only_covers_named_rules(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """\
            import time
            t = time.time()  # simlint: disable=RNG001 -- wrong rule named
            """,
        )
        report = run_lint([path])
        assert [f.rule for f in report.findings] == ["DET003"]

    def test_multiple_rules_in_one_comment(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """\
            import time, heapq
            x = heapq.heappush([], (time.time(), 1))  # simlint: disable=DET003,SCH001 -- test exemption
            """,
        )
        report = run_lint([path])
        assert report.clean

    def test_whitespace_only_reason_is_reported_and_does_not_shield(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """\
            import time
            t = time.time()  # simlint: disable=DET003 --   \n""",
        )
        report = run_lint([path])
        rules = {f.rule for f in report.findings}
        assert SUPPRESSION_RULE in rules
        assert "DET003" in rules
        sup = next(f for f in report.findings if f.rule == SUPPRESSION_RULE)
        assert "without a reason" in sup.message

    def test_suppression_above_decorator_covers_the_def(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """\
            import functools
            import time

            # simlint: disable=DET003 -- memoized wall clock for display only
            @functools.lru_cache(maxsize=1)
            def stamp():
                return time.time()
            """,
        )
        report = run_lint([path])
        # The comment lands on the decorator line; the offending call is
        # inside the decorated def.  Decorator-line suppressions must
        # extend to the ``def`` line, but time.time() is two lines down,
        # so only a def-line rule would be shielded — the call itself is
        # still flagged.  Check the alias exists via the parsed module.
        module = parse_module(path)
        assert 5 in module.suppressions  # the decorator line
        assert 6 in module.suppressions  # aliased onto the def line
        assert report.findings  # the body call is NOT shielded

    def test_multi_rule_disable_covers_v2_rules(self, tmp_path):
        path = write(
            tmp_path,
            "columnar.py",
            """\
            import numpy as np

            def total(values):
                return np.sum(values)  # simlint: disable=NUM001,DET003 -- fixture exemption
            """,
        )
        report = run_lint(
            [path], rules=[RULE_REGISTRY["NUM001"](), RULE_REGISTRY["DET003"]()]
        )
        assert report.clean

    def test_suppression_inside_string_literal_is_ignored(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            '''\
            DOC = """
            example:  code()  # simlint: disable=DET003 -- not a real comment
            """
            ''',
        )
        module = parse_module(path)
        assert module.suppressions == {}
        assert module.meta_findings == []


class TestRunner:
    def test_syntax_error_becomes_finding(self, tmp_path):
        path = write(tmp_path, "broken.py", "def f(:\n    pass\n")
        report = run_lint([path])
        assert [f.rule for f in report.findings] == [SYNTAX_RULE]

    def test_directory_walk_skips_pycache(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        write(tmp_path, "pkg/a.py", "x = 1\n")
        write(tmp_path, "pkg/__pycache__/junk.py", "x = 1\n")
        files = iter_python_files(str(tmp_path))
        assert [f for f in files if "__pycache__" in f] == []
        assert len(files) == 1

    def test_findings_sorted_by_location(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """\
            import time
            b = time.time()
            a = hash("x")
            """,
        )
        report = run_lint([path])
        assert [f.line for f in report.findings] == [2, 3]

    def test_rule_subset(self, tmp_path):
        path = write(
            tmp_path,
            "mod.py",
            """\
            import time
            b = time.time()
            a = hash("x")
            """,
        )
        report = run_lint([path], rules=[RULE_REGISTRY["DET001"]()])
        assert [f.rule for f in report.findings] == ["DET001"]

    def test_a_suppression_shields_only_its_own_module(self, tmp_path):
        shielded = "t = time.time()  # simlint: disable=DET003 -- test exemption\n"
        write(tmp_path, "a.py", "import time\n" + shielded)
        write(tmp_path, "b.py", "import time\nt = time.time()\n")
        report = run_lint([str(tmp_path)])
        assert [(os.path.basename(f.path), f.rule, f.line) for f in report.findings] == [
            ("b.py", "DET003", 2)
        ]

    def test_unparseable_files_are_reported_not_counted(self, tmp_path):
        write(tmp_path, "good.py", "x = 1\n")
        write(tmp_path, "broken.py", "def f(:\n    pass\n")
        report = run_lint([str(tmp_path)])
        assert report.files_checked == 1
        assert [(os.path.basename(f.path), f.rule) for f in report.findings] == [
            ("broken.py", SYNTAX_RULE)
        ]


class TestCli:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "mod.py", "x = 1\n")
        assert main([path]) == EXIT_CLEAN
        assert "0 findings" in capsys.readouterr().out

    def test_seeded_violation_fails(self, tmp_path, capsys):
        """The CI negative test: a planted violation must exit non-zero."""
        path = write(
            tmp_path,
            "mod.py",
            """\
            import heapq
            heapq.heappush([], (0.0, object()))
            """,
        )
        assert main([path]) == EXIT_FINDINGS
        assert "SCH001" in capsys.readouterr().out

    def test_no_paths_is_usage_error(self, capsys):
        assert main([]) == EXIT_ERROR
        assert "no paths" in capsys.readouterr().err

    def test_nonexistent_path_is_an_error_not_a_clean_pass(self, tmp_path, capsys):
        """A typo'd CI path must fail loudly, not report '0 findings in 0 files'."""
        assert main([str(tmp_path / "no-such-dir")]) == EXIT_ERROR
        assert "no such file or directory" in capsys.readouterr().err

    def test_list_rules_documents_the_pack(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        listed = [
            line.split(":", 1)[0]
            for line in capsys.readouterr().out.splitlines()
            if not line.startswith(" ")
        ]
        assert listed == [
            "DET001", "DET002", "DET003", "HOT001", "NUM001", "RNG001", "SCH001", "VER001"
        ]

    def test_parser_accepts_only_paths_explain_and_list_rules(self):
        """The CLI surface is exactly three entry points (plus --help)."""
        actions = [
            action
            for action in build_parser()._actions
            if not isinstance(action, argparse._HelpAction)
        ]
        assert sorted(action.dest for action in actions) == ["explain", "list_rules", "paths"]
        assert sorted(s for action in actions for s in action.option_strings) == [
            "--explain",
            "--list-rules",
        ]


class TestExplainAndWarn:
    def test_explain_prints_rule_documentation(self, capsys):
        assert main(["--explain", "HOT001"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "HOT001" in out
        assert "simlint: disable=HOT001" in out

    def test_explain_unknown_rule_is_usage_error(self, capsys):
        assert main(["--explain", "NOPE123"]) == EXIT_ERROR
        assert "unknown rule" in capsys.readouterr().err


class TestCodebaseIsClean:
    def test_src_repro_lints_clean_with_empty_baseline(self, capsys):
        """The acceptance criterion: the shipped tree has zero findings."""
        import os

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")
        assert main([src]) == EXIT_CLEAN
        capsys.readouterr()
