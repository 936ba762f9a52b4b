"""Unit tests for SimulationConfig, including the paper's Table II pins."""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.errors import ConfigError


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
        assert config.upload_slots == 8
        assert config.download_slots == 80

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
        assert config.blocks_per_object == 40
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
            {"initial_fill_fraction": 1.5},
            {"max_pending": 0},
            {"irq_capacity": 0},
            {"request_fanout": 0},
            {"abandon_after_lookup_failures": 0},
            {"lookup_coverage": 0.0},
            {"lookup_coverage": 1.5},
            {"ring_break_policy": "explode"},
            {"scan_interval": 0.0},
            {"max_tree_nodes": 0},
            {"duration": 0.0},
            {"warmup": -1.0},
            {"warmup": 99999999.0},
            {"block_size_kbit": 0.0},
            {"bootstrap_window": -1.0},
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

    def test_invalid_population_rejected(self):
        from repro.population import PeerClassSpec

        with pytest.raises(ConfigError):
            SimulationConfig(
                population=(PeerClassSpec(name="ghost", behavior="lurker"),)
            )


class TestReplace:
    def test_replace_overrides_field(self):
        config = SimulationConfig().replace(upload_capacity_kbit=40.0)
        assert config.upload_capacity_kbit == 40.0
        assert config.upload_slots == 4

    def test_replace_revalidates(self):
        with pytest.raises(ConfigError):
            SimulationConfig().replace(upload_capacity_kbit=-1.0)

    def test_replace_leaves_original_untouched(self):
        original = SimulationConfig()
        original.replace(num_peers=10)
        assert original.num_peers == 200

    def test_describe_mentions_every_field(self):
        text = SimulationConfig().describe()
        assert "num_peers" in text
        assert "exchange_mechanism" in text
        assert "population" in text

    def test_to_dict_includes_population_deterministically(self):
        from repro.population import PeerClassSpec

        spec = PeerClassSpec(name="all", fraction=1.0)
        first = SimulationConfig(population=(spec,)).to_dict()
        second = SimulationConfig(population=[spec]).to_dict()  # list input
        assert first == second
        assert first["population"][0]["name"] == "all"

    def test_blocks_round_up_for_odd_sizes(self):
        config = SimulationConfig(object_size_mb=1.0, block_size_kbit=3000.0)
        # 8192 kbit / 3000 => 3 blocks
        assert config.blocks_per_object == 3


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
