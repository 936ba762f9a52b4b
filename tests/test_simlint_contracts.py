"""Tests for simlint's hot-core contract rules.

Covers the three contract rules from :mod:`repro.analysis.contracts` —
each with a positive fixture, a clean fixture, and a suppression
fixture, mirroring the executable-spec style of
``tests/test_simlint_rules.py``.  ``TestSeededViolations`` holds the
seeded negatives: one violation per guarded family, planted together
into a single copy of the real tree, must each fire — and nothing else.
"""

from __future__ import annotations

import os
import shutil
import textwrap

import pytest

from repro.analysis import RULE_REGISTRY, run_lint

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def lint(tmp_path, source, rules, name="mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    instances = [RULE_REGISTRY[r]() for r in rules]
    return run_lint([str(path)], rules=instances).findings


HOT_FIXTURE = """\
def kick(engine):
    engine.schedule(1.0, worker)

def worker():
    stats = {"a": 1}
    return stats
"""


class TestHOT001:
    def test_dict_in_hot_function_of_hot_module_is_flagged(self, tmp_path):
        findings = lint(tmp_path, HOT_FIXTURE, ["HOT001"], name="transfer.py")
        assert [f.rule for f in findings] == ["HOT001"]
        assert "'worker'" in findings[0].message

    @pytest.mark.parametrize(
        "name",
        ["transfer.py", "peer.py", "strategy.py", "exchange_manager.py", "irq.py"],
    )
    def test_hot_path_modules_are_in_scope(self, tmp_path, name):
        findings = lint(tmp_path, HOT_FIXTURE, ["HOT001"], name=name)
        assert [f.rule for f in findings] == ["HOT001"]

    def test_dict_comprehension_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            def rates(transfers):
                return {t.peer: t.rate for t in transfers}
            """,
            ["HOT001"],
            name="transfer.py",
        )
        assert [f.rule for f in findings] == ["HOT001"]
        assert findings[0].message.startswith("dict comprehension in hot function 'rates'")

    def test_dict_call_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            def snapshot(peer):
                return dict(up=peer.up, down=peer.down)
            """,
            ["HOT001"],
            name="peer.py",
        )
        assert [f.rule for f in findings] == ["HOT001"]
        assert findings[0].message.startswith("dict() allocated in hot function 'snapshot'")

    def test_hoisted_module_and_class_level_dicts_are_clean(self, tmp_path):
        # Hoisting is the rule's own advice: a dict built once at import
        # time is outside every function body.
        findings = lint(
            tmp_path,
            """\
            _REASONS = {"done": 0, "abandoned": 1}

            class Transfer:
                _CODES = dict(up=0, down=1)

                def code(self, reason):
                    return _REASONS[reason]
            """,
            ["HOT001"],
            name="transfer.py",
        )
        assert findings == []

    def test_function_no_callback_reaches_is_flagged(self, tmp_path):
        # Every function of a hot-path module is checked, scheduled or not.
        findings = lint(
            tmp_path,
            """\
            def never_scheduled():
                return {"a": 1}
            """,
            ["HOT001"],
            name="transfer.py",
        )
        assert [f.rule for f in findings] == ["HOT001"]
        assert "'never_scheduled'" in findings[0].message

    def test_property_getter_is_flagged(self, tmp_path):
        # A property read is not a call, yet callbacks read getters per event.
        findings = lint(
            tmp_path,
            """\
            class Transfer:
                @property
                def rates(self):
                    return {"up": self.up}
            """,
            ["HOT001"],
            name="transfer.py",
        )
        assert [f.rule for f in findings] == ["HOT001"]
        assert "'Transfer.rates'" in findings[0].message

    def test_nested_def_is_reported_under_the_nested_function(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Peer:
                def arm(self, engine):
                    def fire():
                        return {"peer": self}

                    engine.schedule(0.0, fire)
            """,
            ["HOT001"],
            name="peer.py",
        )
        assert [f.rule for f in findings] == ["HOT001"]
        assert "'Peer.arm.fire'" in findings[0].message

    def test_lambda_body_counts_toward_its_enclosing_method(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Director:
                def start(self, engine):
                    engine.schedule(1.0, lambda: self.fire({"n": 3}))
            """,
            ["HOT001"],
            name="strategy.py",
        )
        assert [f.rule for f in findings] == ["HOT001"]
        assert "'Director.start'" in findings[0].message

    def test_non_hot_module_is_not_flagged(self, tmp_path):
        findings = lint(tmp_path, HOT_FIXTURE, ["HOT001"], name="summary.py")
        assert findings == []

    def test_dunder_methods_are_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Peer:
                def __init__(self):
                    self.pending = {}

                def run(self):
                    Peer()
            """,
            ["HOT001"],
            name="peer.py",
        )
        assert findings == []

    def test_record_compat_call_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            def worker(metrics):
                metrics.record_session(SessionRecord(1, 2.0))
            """,
            ["HOT001"],
            name="strategy.py",
        )
        # Only the record constructor: a method named record_session
        # is an ordinary call.
        assert [f.rule for f in findings] == ["HOT001"]
        assert "'SessionRecord'" in findings[0].message

    def test_suppression_with_reason_is_honored(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            def worker():
                scratch = {}  # simlint: disable=HOT001 -- amortized per pass
                return scratch
            """,
            ["HOT001"],
            name="irq.py",
        )
        assert findings == []


class TestNUM001:
    def test_np_sum_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            import numpy as np

            def total(values):
                return np.sum(values)
            """,
            ["NUM001"],
            name="columnar.py",
        )
        assert [f.rule for f in findings] == ["NUM001"]
        assert "np.sum" in findings[0].message

    def test_math_fsum_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            import math

            def total(values):
                return math.fsum(values)
            """,
            ["NUM001"],
            name="columnar.py",
        )
        assert [f.rule for f in findings] == ["NUM001"]

    def test_method_sum_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            "def total(arr):\n    return arr.sum()\n",
            ["NUM001"],
            name="columnar.py",
        )
        assert [f.rule for f in findings] == ["NUM001"]

    def test_builtin_sum_is_flagged(self, tmp_path):
        # A start value does not help: from CPython 3.12 sum() over
        # floats compensates, so sum(values, 0.0) is not the left fold.
        findings = lint(
            tmp_path,
            """\
            import builtins

            def total(values):
                return sum(values) + sum(values, 0.0) + builtins.sum(values, 0.0)
            """,
            ["NUM001"],
            name="columnar.py",
        )
        assert [f.rule for f in findings] == ["NUM001"] * 3
        assert "3.12" in findings[0].message

    def test_plus_equals_left_fold_is_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            def total(values):
                acc = 0.0
                for value in values:
                    acc += value
                return acc
            """,
            ["NUM001"],
            name="columnar.py",
        )
        assert findings == []

    @pytest.mark.parametrize(
        "name", ["summary.py", "popularity.py", "interests.py", "strategy.py", "report.py"]
    )
    def test_modules_feeding_pins_are_in_scope(self, tmp_path, name):
        findings = lint(
            tmp_path, "def mean(v):\n    return sum(v) / len(v)\n", ["NUM001"], name=name
        )
        assert [f.rule for f in findings] == ["NUM001"]

    def test_other_modules_are_out_of_scope(self, tmp_path):
        findings = lint(
            tmp_path,
            "import numpy as np\n\ndef total(v):\n    return np.sum(v)\n",
            ["NUM001"],
            name="peer_table.py",
        )
        assert findings == []

    def test_suppression_with_reason_is_honored(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            def nbytes(chunks):
                return sum(c.nbytes for c in chunks)  # simlint: disable=NUM001 -- int tally, no rounding
            """,
            ["NUM001"],
            name="columnar.py",
        )
        assert findings == []


class TestVER001:
    def test_unbumped_subscript_store_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Index:
                def __init__(self):
                    self.version = 0
                    self.rows = {}

                def put(self, key, value):
                    self.rows[key] = value
            """,
            ["VER001"],
        )
        assert [f.rule for f in findings] == ["VER001"]
        assert "self.rows" in findings[0].message

    def test_bumped_mutation_is_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Index:
                def __init__(self):
                    self.version = 0
                    self.rows = {}

                def put(self, key, value):
                    self.rows[key] = value
                    self.version += 1
            """,
            ["VER001"],
        )
        assert findings == []

    def test_chained_mutator_call_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Index:
                def __init__(self):
                    self.version = 0
                    self.buckets = {}

                def put(self, key, value):
                    self.buckets.setdefault(key, []).append(value)
            """,
            ["VER001"],
        )
        assert findings and all(f.rule == "VER001" for f in findings)

    def test_unversioned_class_is_out_of_scope(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Plain:
                def __init__(self):
                    self.rows = {}

                def put(self, key, value):
                    self.rows[key] = value
            """,
            ["VER001"],
        )
        assert findings == []

    def test_whole_attribute_rebind_is_not_counted(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Index:
                def __init__(self):
                    self.version = 0
                    self.rows = {}

                def compact(self):
                    self.rows = dict(self.rows)
            """,
            ["VER001"],
        )
        assert findings == []

    def test_suppression_with_reason_is_honored(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Index:
                def __init__(self):
                    self.version = 0
                    self.cache = {}

                def lookup(self, key):
                    self.cache[key] = compute(key)  # simlint: disable=VER001 -- version-keyed cache
                    return self.cache[key]
            """,
            ["VER001"],
        )
        assert findings == []


#: Seeded negatives, by test name: (file under src/repro, rule that must
#: fire, planted code).
SEEDED_PLANTS = {
    "sch001": (
        "sim/engine.py",
        "SCH001",
        """
        def _seeded_push(heap, item):
            heapq.heappush(heap, item)
        """,
    ),
    # heapreplace and heappushpop insert as well as pop.
    "sch001_heapreplace": (
        "sim/engine.py",
        "SCH001",
        """
        def _seeded_replace(heap, item):
            return heapq.heapreplace(heap, item)
        """,
    ),
    "sch001_heappushpop": (
        "sim/engine.py",
        "SCH001",
        """
        def _seeded_pushpop(heap, item):
            return heapq.heappushpop(heap, item)
        """,
    ),
    "sch001_from_import": (
        "sim/processes.py",
        "SCH001",
        """
        from heapq import heappushpop, heapreplace
        """,
    ),
    "hot001": (
        "core/exchange_manager.py",
        "HOT001",
        """
        def _seeded_hot():
            return {"seeded": True}
        """,
    ),
    "num001": (
        "metrics/columnar.py",
        "NUM001",
        """
        def _seeded_num(values):
            return np.sum(values)
        """,
    ),
    # A pairwise reduction inside the fold: add_session must keep the
    # record-order left fold.
    "num001_at_a_fold_site": (
        "metrics/columnar.py",
        "NUM001",
        """
        class _SeededFold(ColumnarCollector):
            def add_session(self, *args: Any, **kwargs: Any) -> None:
                agg = self._aggregates
                agg.sharer_kbit = float(np.sum([agg.sharer_kbit, kwargs["kbit_transferred"]]))
        """,
    ),
    # A start value does not make builtin sum() a left fold on 3.12+.
    "num001_sum_with_a_start": (
        "metrics/columnar.py",
        "NUM001",
        """
        def _seeded_sum(values: List[float]) -> float:
            return sum(values, 0.0)
        """,
    ),
    # A mean that feeds a summary field: builtin sum() over floats
    # rounds differently on 3.12+, and the pins would move with it.
    "num001_in_summary": (
        "metrics/summary.py",
        "NUM001",
        """
        def _seeded_mean(values: List[float]) -> float:
            return sum(values) / len(values)
        """,
    ),
    "ver001": (
        "core/peer_table.py",
        "VER001",
        """
        class _SeededVersioned:
            def __init__(self):
                self.version = 0
                self.rows = {}

            def put(self, key):
                self.rows[key] = key
        """,
    ),
    # Set iteration order feeds the sampler, even on the sanctioned stream.
    "det002_in_adversaries": (
        "security/adversaries.py",
        "DET002",
        """
        def _seeded_pick_clique(rng, state):
            pool = {1, 2, 3}
            return rng.stream("adversary").sample(pool, 1)
        """,
    ),
}


def tree_path(tree, finding):
    """``finding``'s file as a ``/``-separated path under ``tree``."""
    return os.path.relpath(os.path.abspath(finding.path), tree).replace(os.sep, "/")


class TestSeededViolations:
    """Every seeded negative is planted into one copy of the real tree,
    which is linted once; each test checks its own plant."""

    @pytest.fixture(scope="class")
    def seeded(self, tmp_path_factory):
        """The planted tree, each plant's (path, rule, lines) by name, and
        the findings of one lint run over the whole tree."""
        tree = tmp_path_factory.mktemp("seeded") / "repro"
        shutil.copytree(
            os.path.join(REPO_ROOT, "src", "repro"),
            tree,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        plants = {}  # name -> (path under the tree, rule, lines the plant occupies)
        for name, (relpath, rule, snippet) in SEEDED_PLANTS.items():
            target = tree / relpath
            source = target.read_text(encoding="utf-8")
            plant = textwrap.dedent(snippet)
            first = source.count("\n") + 1
            target.write_text(source + plant, encoding="utf-8")
            plants[name] = (relpath, rule, range(first, first + plant.count("\n")))
        return tree, plants, run_lint([str(tree)]).findings

    @pytest.fixture(scope="class")
    def fired(self, seeded):
        """Rendered findings keyed by the plant they fall on (``None``: no plant)."""
        tree, plants, findings = seeded

        def plant_of(finding):
            relpath = tree_path(tree, finding)
            for name, (path, rule, lines) in plants.items():
                if (path, rule) == (relpath, finding.rule) and finding.line in lines:
                    return name
            return None

        fired = {}
        for finding in findings:
            fired.setdefault(plant_of(finding), []).append(finding.render())
        return fired

    def test_clean_copy_passes(self, fired):
        # Outside the planted lines the copied tree lints clean.
        assert fired.get(None, []) == []

    def test_seeded_sch001(self, fired):
        assert fired.get("sch001")

    def test_seeded_sch001_heapreplace(self, fired):
        assert fired.get("sch001_heapreplace")

    def test_seeded_sch001_heappushpop(self, fired):
        assert fired.get("sch001_heappushpop")

    def test_seeded_sch001_from_import(self, fired):
        assert fired.get("sch001_from_import")

    def test_seeded_hot001(self, fired):
        assert fired.get("hot001")

    def test_seeded_num001(self, fired):
        assert fired.get("num001")

    def test_seeded_num001_at_a_fold_site(self, fired):
        assert fired.get("num001_at_a_fold_site")

    def test_seeded_num001_sum_with_a_start(self, fired):
        assert fired.get("num001_sum_with_a_start")

    def test_seeded_num001_in_summary(self, fired):
        assert fired.get("num001_in_summary")

    def test_seeded_ver001(self, fired):
        assert fired.get("ver001")

    def test_seeded_det002_in_adversaries(self, fired):
        assert fired.get("det002_in_adversaries")

    @pytest.mark.parametrize(
        "relpath", sorted({relpath for relpath, _, _ in SEEDED_PLANTS.values()})
    )
    def test_one_file_run_matches_the_whole_tree_run(self, seeded, relpath):
        """Every rule checks one module at a time: linting a planted file
        alone with all rules gives exactly the whole-tree run's findings
        in that file."""
        tree, _, whole = seeded
        alone = run_lint([str(tree / relpath)]).findings
        assert alone
        assert alone == [f for f in whole if tree_path(tree, f) == relpath]
