"""Tests for simlint v2: the project pass and the hot-core contract rules.

Covers :mod:`repro.analysis.project` (module naming, call-graph edges,
hot-set seeding and closure) and the three contract rules from
:mod:`repro.analysis.contracts` — each with a positive fixture, a clean
fixture, and a suppression fixture, mirroring the executable-spec style
of ``tests/test_simlint_rules.py``.  ``TestSeededViolations`` holds the
seeded negatives: one violation per guarded family, planted together
into a single copy of the real tree, must each fire — and nothing else.
"""

from __future__ import annotations

import os
import shutil
import textwrap

import pytest

from repro.analysis import (
    RULE_REGISTRY,
    Project,
    iter_python_files,
    parse_module,
    project_graph,
    run_lint,
)
from repro.analysis.project import module_name

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def lint(tmp_path, source, rules, name="mod.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    instances = [RULE_REGISTRY[r]() for r in rules]
    return run_lint([str(path)], rules=instances).findings


def graph_of(tmp_path, sources):
    project = Project()
    for name, source in sources.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        project.modules.append(parse_module(str(path)))
    return project_graph(project)


class TestModuleName:
    @pytest.fixture(autouse=True)
    def _at_repo_root(self, monkeypatch):
        # module_name reads the package chain from disk, relative to the cwd.
        monkeypatch.chdir(REPO_ROOT)

    def test_src_layout_maps_to_dotted_name(self):
        assert module_name("src/repro/network/peer.py") == "repro.network.peer"

    def test_init_maps_to_package(self):
        assert module_name("src/repro/analysis/__init__.py") == "repro.analysis"

    def test_fixture_path_maps_to_stem(self):
        assert module_name("tmp/pytest-1/test0/transfer.py") == "transfer"

    def test_hot_set_does_not_depend_on_the_lint_root(self, monkeypatch):
        """Names follow the ``__init__.py`` chain, not a ``src`` path component."""

        def hot_set(root):
            modules = [parse_module(path) for path in iter_python_files(root)]
            return set(project_graph(Project(modules)).hot)

        from_repo_root = hot_set("src/repro")
        monkeypatch.chdir("src")
        assert hot_set("repro") == from_repo_root


class TestCallGraph:
    def test_schedule_positional_arg_seeds_hot_set(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "mod.py": """\
                def kick(engine):
                    engine.schedule(1.0, worker)

                def worker():
                    helper()

                def helper():
                    pass

                def cold():
                    pass
                """
            },
        )
        assert graph.is_hot("mod:worker")
        assert graph.is_hot("mod:helper")  # transitive closure
        assert not graph.is_hot("mod:cold")
        assert not graph.is_hot("mod:kick")  # scheduling is not dispatch

    def test_callback_keyword_and_param_convention_seed(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "mod.py": """\
                class Periodic:
                    def __init__(self, engine, interval, callback):
                        self._callback = callback

                def install(engine):
                    Periodic(engine, 5.0, tick)

                def tick():
                    pass
                """
            },
        )
        assert graph.is_hot("mod:tick")

    def test_lambda_callback_seeds_its_callees(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "mod.py": """\
                class Director:
                    def start(self, engine):
                        engine.schedule(1.0, lambda: self._fire(3))

                    def _fire(self, n):
                        pass
                """
            },
        )
        assert graph.is_hot("mod:Director._fire")

    def test_self_method_resolution_prefers_own_class(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "mod.py": """\
                class A:
                    def go(self, engine):
                        engine.schedule(0.0, self.run)

                    def run(self):
                        self.step()

                    def step(self):
                        pass
                """
            },
        )
        assert graph.is_hot("mod:A.run")
        assert graph.is_hot("mod:A.step")

    def test_cross_module_from_import_module_call(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "src/pkg/a.py": """\
                from pkg import b

                def go(engine):
                    engine.schedule(0.0, loop)

                def loop():
                    b.work()
                """,
                "src/pkg/b.py": """\
                def work():
                    pass
                """,
                "src/pkg/__init__.py": "",
            },
        )
        assert graph.is_hot("pkg.b:work")

    def test_hot_reason_names_the_seed(self, tmp_path):
        graph = graph_of(
            tmp_path,
            {
                "mod.py": """\
                def kick(engine):
                    engine.schedule(1.0, worker)

                def worker():
                    helper()

                def helper():
                    pass
                """
            },
        )
        assert graph.hot_reason("mod:worker") == "scheduled as an Engine callback"
        assert "mod:worker" in graph.hot_reason("mod:helper")


HOT_FIXTURE = """\
def kick(engine):
    engine.schedule(1.0, worker)

def worker():
    stats = {{"a": 1}}
    return stats
"""


class TestHOT001:
    def test_dict_in_hot_function_of_hot_module_is_flagged(self, tmp_path):
        findings = lint(tmp_path, HOT_FIXTURE.format(), ["HOT001"], name="transfer.py")
        assert [f.rule for f in findings] == ["HOT001"]
        assert "worker" in findings[0].message

    def test_cold_function_is_not_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            def never_scheduled():
                return {"a": 1}
            """,
            ["HOT001"],
            name="transfer.py",
        )
        assert findings == []

    def test_non_hot_module_is_not_flagged(self, tmp_path):
        findings = lint(tmp_path, HOT_FIXTURE.format(), ["HOT001"], name="summary.py")
        assert findings == []

    def test_dunder_methods_are_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            class Peer:
                def __init__(self):
                    self.pending = {}

                def go(self, engine):
                    engine.schedule(0.0, self.run)

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
            def kick(engine):
                engine.schedule(1.0, worker)

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
            def kick(engine):
                engine.schedule(1.0, worker)

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
        def _seeded_hot(peer):
            peer.ctx.engine.schedule(0.0, _seeded_hot_cb)

        def _seeded_hot_cb():
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
    # Sampling whitewash targets without naming the "adversary" stream.
    "rng002_in_adversaries": (
        "security/adversaries.py",
        "RNG002",
        """
        def _seeded_pick_targets(rng, candidate_ids):
            return rng.sample(candidate_ids, 1)
        """,
    ),
    # Set iteration order feeds the sampler, even on the sanctioned stream.
    "det002_in_adversaries": (
        "security/adversaries.py",
        "DET002",
        """
        def _seeded_pick_clique(rng, state):
            pool = {1, 2, 3}
            return rng.sample(pool, 1, stream="adversary")
        """,
    ),
}


class TestSeededViolations:
    """Every seeded negative is planted into one copy of the real tree,
    which is linted once; each test checks its own plant."""

    @pytest.fixture(scope="class")
    def fired(self, tmp_path_factory):
        """Rendered findings keyed by the plant they fall on (``None``: no plant)."""
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

        def plant_of(finding):
            relpath = os.path.relpath(os.path.abspath(finding.path), tree).replace(os.sep, "/")
            for name, (path, rule, lines) in plants.items():
                if (path, rule) == (relpath, finding.rule) and finding.line in lines:
                    return name
            return None

        fired = {}
        for finding in run_lint([str(tree)]).findings:
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

    def test_seeded_rng002_in_adversaries(self, fired):
        assert fired.get("rng002_in_adversaries")

    def test_seeded_det002_in_adversaries(self, fired):
        assert fired.get("det002_in_adversaries")
