"""Unit tests for SimulationConfig, including the paper's Table II pins."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from repro.config import SimulationConfig
from repro.core.disciplines import DISCIPLINES, make_discipline
from repro.core.ring import BREAK_POLICIES, ExchangeRing, RingEdge
from repro.errors import ConfigError, RingError
from repro.network.capacity import SlotPool
from repro.units import KBIT_PER_MB
from tests.helpers import make_ctx


class TestTableIIDefaults:
    """Pin the defaults to the paper's Table II exactly."""

    def test_population(self):
        config = SimulationConfig()
        assert config.num_peers == 200
        assert config.freeloader_fraction == 0.5
        assert config.num_sharers == 100
        assert config.num_freeloaders == 100

    def test_link_capacities(self):
        config = SimulationConfig()
        assert config.download_capacity_kbit == 800.0
        assert config.upload_capacity_kbit == 80.0
        assert config.slot_kbit == 10.0
        assert SlotPool(config.upload_capacity_kbit, config.slot_kbit).total == 8
        assert SlotPool(config.download_capacity_kbit, config.slot_kbit).total == 80

    def test_content_model(self):
        config = SimulationConfig()
        assert config.num_categories == 300
        assert (config.objects_per_category_min, config.objects_per_category_max) == (1, 300)
        assert (config.categories_per_peer_min, config.categories_per_peer_max) == (1, 8)
        assert config.category_factor == 0.2
        assert config.object_factor == 0.2
        assert config.object_size_mb == 20.0

    def test_storage_and_queues(self):
        config = SimulationConfig()
        assert (config.storage_min_objects, config.storage_max_objects) == (5, 40)
        assert config.irq_capacity == 1000
        assert config.max_pending == 6

    def test_derived_block_geometry(self):
        config = SimulationConfig()
        # 20 MB = 163840 kbit splits evenly into 40 blocks of 4096 kbit.
        assert config.object_size_kbit == 163840.0
        assert make_ctx(config).blocks_for(0) == 40
        assert config.block_seconds == pytest.approx(409.6)


class TestValidation:
    def test_defaults_valid(self):
        SimulationConfig()  # must not raise

    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_peers": 1},
            {"freeloader_fraction": 1.5},
            {"freeloader_fraction": -0.1},
            {"slot_kbit": 0.0},
            {"upload_capacity_kbit": 5.0},  # below one slot
            {"download_capacity_kbit": 5.0},
            {"num_categories": 0},
            {"objects_per_category_min": 0},
            {"objects_per_category_min": 10, "objects_per_category_max": 5},
            {"categories_per_peer_min": 0},
            {"category_factor": -1.0},
            {"object_factor": -0.5},
            {"object_size_mb": 0.0},
            {"storage_min_objects": 0},
            {"storage_min_objects": 50, "storage_max_objects": 40},
            {"storage_check_interval": 0.0},
            {"tree_refresh_interval": 0.0},
            {"max_pending": 0},
            {"irq_capacity": 0},
            {"request_fanout": 0},
            {"scheduler_mode": "lottery"},
            {"ring_break_policy": "explode"},
            {"scan_interval": 0.0},
            {"max_tree_nodes": 0},
            {"duration": 0.0},
            {"warmup": -1.0},
            {"warmup": 99999999.0},
            {"block_size_kbit": 0.0},
            {"categories_per_peer_min": 5, "categories_per_peer_max": 2},
            {"exchange_mechanism": "carrier-pigeon"},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            SimulationConfig(**overrides)

    @pytest.mark.parametrize(
        "mechanism", ["none", "pairwise", "2-5-way", "5-2-way", "2-7-way", "7-2-way", "1-2-way"]
    )
    def test_known_mechanisms_accepted(self, mechanism):
        SimulationConfig(exchange_mechanism=mechanism)

    def test_unknown_mechanism_error_lists_accepted_forms(self):
        # The policy parser is the single source of truth for accepted
        # spec forms; its error must teach them.
        with pytest.raises(ConfigError) as info:
            SimulationConfig(exchange_mechanism="carrier-pigeon")
        message = str(info.value)
        for form in ("none", "pairwise", "N-2-way", "2-N-way"):
            assert form in message

    FLOAT_FIELDS = sorted(
        f.name
        for f in dataclasses.fields(SimulationConfig)
        if isinstance(f.default, float)
    )

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_non_finite_float_fields_rejected(self, field, value):
        # Unchecked, an infinite duration or category factor runs
        # forever, an infinite interval fails scheduling mid-build and
        # an infinite capacity crashes on a NaN slot count.
        with pytest.raises(ConfigError, match="finite"):
            SimulationConfig(**{field: value})

    INT_FIELDS = sorted(
        f.name
        for f in dataclasses.fields(SimulationConfig)
        if type(f.default) is int
    )

    @pytest.mark.parametrize("kind", ["non-integral", "integral-float"])
    @pytest.mark.parametrize("field", INT_FIELDS)
    def test_int_fields_reject_floats(self, field, kind):
        # A float passes the range checks, then fails inside build() (a
        # peer count, a catalog size) or acts as if rounded up (a bound).
        default = getattr(SimulationConfig(), field)
        value = default + 0.5 if kind == "non-integral" else float(default)
        with pytest.raises(ConfigError, match="must be an integer"):
            SimulationConfig(**{field: value})

    @pytest.mark.parametrize("field", ["max_pending", "seed"])
    def test_int_fields_reject_bools(self, field):
        with pytest.raises(ConfigError, match="must be an integer"):
            SimulationConfig(**{field: True})

    @pytest.mark.parametrize(
        "field",
        [
            "count",
            "storage_min_objects",
            "storage_max_objects",
            "categories_per_peer_min",
            "categories_per_peer_max",
        ],
    )
    def test_class_int_fields_reject_floats(self, field):
        from repro.population import PeerClassSpec

        classes = (PeerClassSpec(name="rest"), PeerClassSpec(name="odd", **{field: 2.5}))
        with pytest.raises(ConfigError, match="must be an integer"):
            SimulationConfig(population=classes)

    @pytest.mark.parametrize("field", ["upload_capacity_kbit", "download_capacity_kbit"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_class_capacity_rejected(self, field, value):
        from repro.population import PeerClassSpec

        with pytest.raises(ConfigError, match="finite"):
            SimulationConfig(population=(PeerClassSpec(name="fast", **{field: value}),))

    def test_invalid_population_rejected(self):
        from repro.population import PeerClassSpec

        with pytest.raises(ConfigError):
            SimulationConfig(
                population=(PeerClassSpec(name="ghost", behavior="lurker"),)
            )


class TestNameTables:
    """Each choice's names live in one table beside the code that
    implements it (``core.disciplines.DISCIPLINES``,
    ``core.ring.BREAK_POLICIES``).  Every validator reads that table, so
    a name is accepted everywhere or nowhere, and an unknown name is
    still rejected with the message each validator always gave."""

    @pytest.mark.parametrize("name", DISCIPLINES)
    def test_every_discipline_is_accepted_and_built(self, name):
        from repro.population import PeerClassSpec

        SimulationConfig(scheduler_mode=name)
        SimulationConfig(population=(PeerClassSpec(name="x", service_discipline=name),))
        assert make_discipline(name, 0, shares=True, fake_participation=False).name == name

    @pytest.mark.parametrize("policy", BREAK_POLICIES)
    def test_every_break_policy_is_accepted_and_built(self, policy):
        SimulationConfig(ring_break_policy=policy)
        edges = [RingEdge(1, 2, 10), RingEdge(2, 1, 11)]
        assert ExchangeRing(1, edges, policy).break_policy == policy

    def test_unknown_names_keep_their_messages(self):
        from repro.population import PeerClassSpec

        def message(error, build):
            with pytest.raises(error) as info:
                build()
            return str(info.value)

        assert (
            message(ConfigError, lambda: SimulationConfig(scheduler_mode="lottery"))
            == "unknown scheduler_mode 'lottery'"
        )
        assert (
            message(ConfigError, lambda: SimulationConfig(ring_break_policy="explode"))
            == "unknown ring_break_policy 'explode'"
        )
        assert message(
            ConfigError, lambda: PeerClassSpec(name="x", service_discipline="lottery").validate()
        ) == (
            "peer class 'x' has unknown service discipline 'lottery'; "
            "expected one of ('fifo', 'credit', 'participation')"
        )
        assert message(ConfigError, lambda: make_discipline("lottery", 0, True, False)) == (
            "unknown service discipline 'lottery'; "
            "expected one of ['credit', 'fifo', 'participation']"
        )
        edges = [RingEdge(1, 2, 10), RingEdge(2, 1, 11)]
        assert (
            message(RingError, lambda: ExchangeRing(1, edges, "explode"))
            == "unknown ring break policy 'explode'"
        )


class TestReplace:
    def test_replace_overrides_field(self):
        config = SimulationConfig().replace(upload_capacity_kbit=40.0)
        assert config.upload_capacity_kbit == 40.0
        assert SlotPool(config.upload_capacity_kbit, config.slot_kbit).total == 4

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError):
            SimulationConfig().replace(upload_capacity_kbit=-1.0)

    def test_replace_leaves_original_untouched(self):
        original = SimulationConfig()
        original.replace(num_peers=10)
        assert original.num_peers == 200

    def test_to_dict_includes_population_deterministically(self):
        from repro.population import PeerClassSpec

        spec = PeerClassSpec(name="all", fraction=1.0)
        first = SimulationConfig(population=(spec,)).to_dict()
        second = SimulationConfig(population=[spec]).to_dict()  # list input
        assert first == second
        assert first["population"][0]["name"] == "all"

    @given(
        object_kbit=st.integers(min_value=1, max_value=50 * KBIT_PER_MB),
        block_kbit=st.integers(min_value=1, max_value=10_000),
    )
    def test_blocks_cover_the_object_with_under_one_block_spare(
        self, object_kbit, block_kbit
    ):
        config = SimulationConfig(
            object_size_mb=object_kbit / KBIT_PER_MB, block_size_kbit=float(block_kbit)
        )
        blocks = make_ctx(config).blocks_for(0)
        assert blocks * block_kbit >= object_kbit > (blocks - 1) * block_kbit

    def test_blocks_round_up_for_odd_sizes(self):
        config = SimulationConfig(object_size_mb=1.0, block_size_kbit=3000.0)
        # 8192 kbit / 3000 => 3 blocks
        assert make_ctx(config).blocks_for(0) == 3


class TestHashing:
    def test_default_and_smoke_figure_configs_hash(self):
        """Frozen configs are hashable, and equal configs hash equal."""
        from repro.experiments.figures import FIGURES

        configs = [SimulationConfig()] + [
            config
            for spec in FIGURES.values()
            for config in spec.build_grid("smoke", 42).values()
        ]
        assert len(configs) > len(FIGURES)
        for config in configs:
            twin = config.replace()
            assert twin is not config and twin == config
            assert hash(twin) == hash(config)
