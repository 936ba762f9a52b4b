"""Fixture-based tests for every simlint rule in ``repro.analysis.rules``.

Each test plants a small source fixture exhibiting (or deliberately
avoiding) one hazard and asserts the rule's verdict, so every rule has
an executable specification of what it does and does not flag.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import RULE_REGISTRY, run_lint


def lint(tmp_path, source, rules, name="mod.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    instances = [RULE_REGISTRY[r]() for r in rules]
    return run_lint([str(path)], rules=instances).findings


class TestRNG001ModuleLevelRandom:
    def test_module_level_call_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            import random
            x = random.random()
            """,
            ["RNG001"],
        )
        assert [f.rule for f in findings] == ["RNG001"]
        assert "random.random" in findings[0].message

    def test_random_Random_instantiation_is_allowed(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            import random
            r = random.Random(7)
            """,
            ["RNG001"],
        )
        assert findings == []

    def test_from_import_of_global_state_is_flagged(self, tmp_path):
        findings = lint(tmp_path, "from random import choice, seed\n", ["RNG001"])
        assert [f.rule for f in findings] == ["RNG001"]

    def test_from_import_of_Random_is_allowed(self, tmp_path):
        findings = lint(tmp_path, "from random import Random\n", ["RNG001"])
        assert findings == []

    def test_instance_draws_are_not_module_level(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            import random
            rand = random.Random(7)
            x = rand.choice([1, 2, 3])
            """,
            ["RNG001"],
        )
        assert findings == []


class TestRNG002ExplicitStream:
    def test_rng_named_receiver_without_stream_is_flagged(self, tmp_path):
        findings = lint(tmp_path, "x = rng.choice(items)\n", ["RNG002"])
        assert [f.rule for f in findings] == ["RNG002"]

    def test_stream_keyword_satisfies_the_rule(self, tmp_path):
        findings = lint(tmp_path, 'x = rng.choice(items, stream="workload")\n', ["RNG002"])
        assert findings == []

    def test_assignment_from_RandomSource_is_inferred(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            from repro.sim.rng import RandomSource
            source = RandomSource(7)
            x = source.sample(items, 3)
            """,
            ["RNG002"],
        )
        assert [f.rule for f in findings] == ["RNG002"]

    def test_spawned_source_is_inferred(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            child = parent.spawn("worker")
            x = child.random()
            """,
            ["RNG002"],
        )
        assert [f.rule for f in findings] == ["RNG002"]

    def test_annotated_parameter_is_inferred(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            def build(source: "RandomSource"):
                return source.uniform_int(1, 8)
            """,
            ["RNG002"],
        )
        assert [f.rule for f in findings] == ["RNG002"]

    def test_ctx_rng_attribute_is_inferred(self, tmp_path):
        findings = lint(tmp_path, "x = ctx.rng.random()\n", ["RNG002"])
        assert [f.rule for f in findings] == ["RNG002"]

    def test_random_source_only_methods_flag_any_receiver(self, tmp_path):
        findings = lint(tmp_path, "x = anything.shuffled(items)\n", ["RNG002"])
        assert [f.rule for f in findings] == ["RNG002"]

    def test_plain_Random_instances_are_not_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            import random
            rand = random.Random(7)
            x = rand.choice(items)
            y = self._rand.sample(items, 2)
            """,
            ["RNG002"],
        )
        assert findings == []


class TestDET001BuiltinHash:
    def test_builtin_hash_is_flagged(self, tmp_path):
        findings = lint(tmp_path, 'seed = hash("topology")\n', ["DET001"])
        assert [f.rule for f in findings] == ["DET001"]

    def test_hashlib_is_the_sanctioned_alternative(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            import hashlib
            digest = hashlib.sha256(b"topology").digest()
            """,
            ["DET001"],
        )
        assert findings == []

    def test_hash_methods_are_not_the_builtin(self, tmp_path):
        findings = lint(tmp_path, "digest = obj.hash()\n", ["DET001"])
        assert findings == []


class TestDET002UnorderedIteration:
    def test_draw_over_set_call_is_flagged(self, tmp_path):
        findings = lint(tmp_path, "x = rand.sample(set(items), 2)\n", ["DET002"])
        assert [f.rule for f in findings] == ["DET002"]

    def test_sorted_wrapping_fixes_it(self, tmp_path):
        findings = lint(tmp_path, "x = rand.sample(sorted(set(items)), 2)\n", ["DET002"])
        assert findings == []

    def test_list_wrapper_does_not_launder_a_dict_view(self, tmp_path):
        findings = lint(tmp_path, "x = rand.choice(list(table.keys()))\n", ["DET002"])
        assert [f.rule for f in findings] == ["DET002"]

    def test_set_literal_and_comprehension_are_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            a = rand.choice(list({1, 2, 3}))
            b = rand.choice(list({x for x in items}))
            """,
            ["DET002"],
        )
        assert [f.rule for f in findings] == ["DET002", "DET002"]

    def test_for_loop_over_set_that_schedules_is_flagged(self, tmp_path):
        sources = [
            """\
            for peer in set(peers):
                engine.schedule(1.0, peer.scan)
            """,
            # Periodic events and heap re-pushes take the order too.
            """\
            for peer in {a, b}:
                engine.schedule_every(1.0, 0.0, peer.scan)
            """,
            """\
            for item in {a, b}:
                heapq.heapreplace(heap, item)
            """,
            """\
            for item in {a, b}:
                heapq.heappushpop(heap, item)
            """,
        ]
        for source in sources:
            findings = lint(tmp_path, source, ["DET002"])
            assert [f.rule for f in findings] == ["DET002"], source

    def test_for_loop_over_set_without_order_sensitive_body_is_fine(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            total = 0
            for value in set(values):
                total += value
            """,
            ["DET002"],
        )
        assert findings == []

    def test_tainted_local_set_variable_is_tracked(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            def pick(rand, items):
                candidates = set(items)
                return rand.choice(list(candidates))
            """,
            ["DET002"],
        )
        assert [f.rule for f in findings] == ["DET002"]

    def test_reassigned_local_is_not_tainted(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            def pick(rand, items):
                candidates = set(items)
                candidates = sorted(candidates)
                return rand.choice(candidates)
            """,
            ["DET002"],
        )
        assert findings == []


class TestDET003WallClock:
    def test_time_time_is_flagged(self, tmp_path):
        findings = lint(tmp_path, "import time\nt = time.time()\n", ["DET003"])
        assert [f.rule for f in findings] == ["DET003"]

    def test_perf_counter_and_datetime_now_are_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            import time
            import datetime
            a = time.perf_counter()
            b = datetime.datetime.now()
            """,
            ["DET003"],
        )
        assert [f.rule for f in findings] == ["DET003", "DET003"]

    def test_from_import_is_flagged_at_the_import(self, tmp_path):
        findings = lint(tmp_path, "from time import perf_counter\n", ["DET003"])
        assert [f.rule for f in findings] == ["DET003"]

    def test_engine_time_attribute_is_fine(self, tmp_path):
        findings = lint(tmp_path, "now = engine.now\nt = event.time\n", ["DET003"])
        assert findings == []


class TestSCH001RawHeappush:
    def test_qualified_heappush_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            import heapq
            heapq.heappush(heap, (0.0, item))
            """,
            ["SCH001"],
        )
        assert [f.rule for f in findings] == ["SCH001"]

    def test_from_import_is_flagged(self, tmp_path):
        findings = lint(tmp_path, "from heapq import heappush\n", ["SCH001"])
        assert [f.rule for f in findings] == ["SCH001"]

    @pytest.mark.parametrize("insert", ["heapreplace", "heappushpop"])
    def test_inserts_that_also_pop_are_flagged(self, tmp_path, insert):
        findings = lint(
            tmp_path,
            f"""\
            import heapq
            heapq.{insert}(heap, (0.0, item))
            """,
            ["SCH001"],
        )
        assert [f.rule for f in findings] == ["SCH001"]
        findings = lint(tmp_path, f"from heapq import heapify, {insert}\n", ["SCH001"])
        assert [f.rule for f in findings] == ["SCH001"]

    def test_heapify_and_heappop_stay_legal(self, tmp_path):
        findings = lint(
            tmp_path,
            """\
            import heapq
            heapq.heapify(rows)
            first = heapq.heappop(rows)
            """,
            ["SCH001"],
        )
        assert findings == []


FPR_PREAMBLE = """\
from dataclasses import dataclass, field
from typing import Optional, Tuple, Set
"""


def fpr(source):
    """Prefix a dedented FPR001 fixture with the shared import preamble."""
    return FPR_PREAMBLE + textwrap.dedent(source)


class TestFPR001FingerprintCoverage:
    def test_asdict_based_to_dict_covers_everything(self, tmp_path):
        findings = lint(
            tmp_path,
            fpr("""\
            import dataclasses

            @dataclass(frozen=True)
            class SimulationConfig:
                num_peers: int = 200
                def to_dict(self):
                    return dataclasses.asdict(self)
            """),
            ["FPR001"],
        )
        assert findings == []

    def test_hand_enumerated_to_dict_missing_a_field_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            fpr("""\
            @dataclass(frozen=True)
            class SimulationConfig:
                num_peers: int = 200
                new_knob: float = 0.5
                def to_dict(self):
                    return {"num_peers": self.num_peers}
            """),
            ["FPR001"],
        )
        assert [f.rule for f in findings] == ["FPR001"]
        assert "new_knob" in findings[0].message

    def test_nested_spec_with_partial_to_dict_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            fpr("""\
            import dataclasses

            @dataclass(frozen=True)
            class StrategySpec:
                rule: str = "static"
                hidden: float = 1.0
                def to_dict(self):
                    return {"rule": self.rule}

            @dataclass(frozen=True)
            class SimulationConfig:
                strategy: Optional[StrategySpec] = None
                def to_dict(self):
                    return dataclasses.asdict(self)
            """),
            ["FPR001"],
        )
        assert [f.rule for f in findings] == ["FPR001"]
        assert "StrategySpec.hidden" in findings[0].message

    def test_union_alias_is_expanded(self, tmp_path):
        findings = lint(
            tmp_path,
            fpr("""\
            from typing import Union

            @dataclass(frozen=True)
            class Phase:
                time: float
                secret: int = 0
                def to_dict(self):
                    return {"time": self.time}

            @dataclass(frozen=True)
            class Arrival:
                time: float

            ScenarioEvent = Union[Phase, Arrival]

            @dataclass(frozen=True)
            class SimulationConfig:
                scenario: Tuple[ScenarioEvent, ...] = ()
            """),
            ["FPR001"],
        )
        assert [f.rule for f in findings] == ["FPR001"]
        assert "Phase.secret" in findings[0].message

    def test_unordered_container_in_fingerprinted_field_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            fpr("""\
            @dataclass(frozen=True)
            class SimulationConfig:
                banned_peers: Set[int] = field(default_factory=set)
            """),
            ["FPR001"],
        )
        assert [f.rule for f in findings] == ["FPR001"]
        assert "unordered" in findings[0].message

    def test_reachable_plain_class_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            fpr("""\
            class Opaque:
                pass

            @dataclass(frozen=True)
            class SimulationConfig:
                thing: Optional[Opaque] = None
            """),
            ["FPR001"],
        )
        assert [f.rule for f in findings] == ["FPR001"]
        assert "not a dataclass" in findings[0].message

    def test_unresolvable_reference_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            fpr("""\
            @dataclass(frozen=True)
            class SimulationConfig:
                mystery: "SomewhereElse" = None
            """),
            ["FPR001"],
        )
        assert [f.rule for f in findings] == ["FPR001"]
        assert "SomewhereElse" in findings[0].message

    def test_intentional_exclusion_is_suppressed_on_the_field_line(self, tmp_path):
        findings = lint(
            tmp_path,
            fpr("""\
            @dataclass(frozen=True)
            class SimulationConfig:
                num_peers: int = 200
                cache_dir: str = ""  # simlint: disable=FPR001 -- path never affects results
                def to_dict(self):
                    return {"num_peers": self.num_peers}
            """),
            ["FPR001"],
        )
        assert findings == []

    def test_unreachable_dataclasses_are_ignored(self, tmp_path):
        findings = lint(
            tmp_path,
            fpr("""\
            @dataclass(frozen=True)
            class NotASpec:
                hidden: int = 0
                def to_dict(self):
                    return {}

            @dataclass(frozen=True)
            class SimulationConfig:
                num_peers: int = 200
            """),
            ["FPR001"],
        )
        assert findings == []

    def test_cross_module_reachability(self, tmp_path):
        (tmp_path / "specs.py").write_text(
            fpr(
                """\
                @dataclass(frozen=True)
                class PeerClassSpec:
                    name: str
                    quirk: int = 0
                    def to_dict(self):
                        return {"name": self.name}
                """
            ),
            encoding="utf-8",
        )
        (tmp_path / "config.py").write_text(
            fpr(
                """\
                from specs import PeerClassSpec

                @dataclass(frozen=True)
                class SimulationConfig:
                    population: Tuple[PeerClassSpec, ...] = ()
                """
            ),
            encoding="utf-8",
        )
        findings = run_lint([str(tmp_path)], rules=[RULE_REGISTRY["FPR001"]()]).findings
        assert [f.rule for f in findings] == ["FPR001"]
        assert "PeerClassSpec.quirk" in findings[0].message
