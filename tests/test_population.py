"""Tests for heterogeneous peer populations.

Covers the declarative :class:`~repro.population.PeerClassSpec` layer:
spec validation, count/fraction/remainder resolution, class assignment,
the bit-identical legacy two-class equivalence (the refactor's core
regression guarantee), per-class metrics, per-peer capacity enforcement
and end-to-end mixed-mechanism / mixed-discipline runs.
"""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig
from repro.core.disciplines import (
    CreditDiscipline,
    FifoDiscipline,
    ParticipationDiscipline,
    make_discipline,
)
from repro.errors import ConfigError
from repro.population import (
    PeerClassSpec,
    assign_peer_classes,
    resolve_population,
)
from repro.sim.rng import RandomSource
from repro.simulation import FileSharingSimulation, run_simulation

from tests.helpers import run_with_records, small_config


def two_class(**freeloader_overrides):
    """An explicit sharer/freeloader split mirroring the derived one."""
    return (
        PeerClassSpec(name="sharer", behavior="sharer"),
        PeerClassSpec(name="freeloader", behavior="freeloader", **freeloader_overrides),
    )


class TestSpecValidation:
    @pytest.mark.parametrize(
        "spec",
        [
            dict(name=""),
            dict(name="x", count=3, fraction=0.5),
            dict(name="x", count=-1),
            dict(name="x", fraction=1.5),
            dict(name="x", fraction=-0.1),
            dict(name="x", behavior="lurker"),
            dict(name="x", service_discipline="lottery"),
            dict(name="x", exchange_mechanism="carrier-pigeon"),
        ],
    )
    def test_invalid_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            PeerClassSpec(**spec).validate()

    def test_valid_spec_passes(self):
        PeerClassSpec(
            name="tier1",
            fraction=0.25,
            behavior="sharer",
            exchange_mechanism="2-5-way",
            service_discipline="credit",
            upload_capacity_kbit=160.0,
        ).validate()


class TestResolution:
    def test_config_rejects_bad_population(self):
        with pytest.raises(ConfigError):
            SimulationConfig(population=(PeerClassSpec(name="x", behavior="lurker"),))

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig(
                population=(
                    PeerClassSpec(name="x", count=100),
                    PeerClassSpec(name="x"),
                )
            )

    def test_two_remainder_classes_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig(
                population=(PeerClassSpec(name="a"), PeerClassSpec(name="b"))
            )

    def test_counts_must_cover_population(self):
        with pytest.raises(ConfigError):
            SimulationConfig(
                num_peers=10,
                population=(
                    PeerClassSpec(name="a", count=4),
                    PeerClassSpec(name="b", count=4),
                ),
            )

    def test_counts_may_not_exceed_population(self):
        with pytest.raises(ConfigError):
            SimulationConfig(
                num_peers=10,
                population=(
                    PeerClassSpec(name="a", count=12),
                    PeerClassSpec(name="b"),
                ),
            )

    def test_per_class_capacity_below_slot_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig(
                population=(
                    PeerClassSpec(name="a", upload_capacity_kbit=5.0),
                    PeerClassSpec(name="b", count=100),
                )
            )

    @pytest.mark.parametrize(
        "num_peers,expected", [(25, {"a": 13, "b": 12}), (27, {"a": 14, "b": 13})]
    )
    def test_fraction_only_split_covers_odd_populations(self, num_peers, expected):
        # No remainder class: largest-remainder apportionment keeps two
        # half-fractions exact over an odd population instead of
        # rejecting 12+12 != 25.
        config = SimulationConfig(
            num_peers=num_peers,
            population=(
                PeerClassSpec(name="a", fraction=0.5),
                PeerClassSpec(name="b", fraction=0.5, behavior="freeloader"),
            ),
        )
        counts = {c.name: c.count for c in resolve_population(config)}
        assert counts == expected

    def test_inconsistent_fractions_still_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig(
                num_peers=10,
                population=(
                    PeerClassSpec(name="a", fraction=0.5),
                    PeerClassSpec(name="b", fraction=0.2),
                ),
            )

    def test_remainder_absorbs_leftover(self):
        config = SimulationConfig(
            num_peers=10,
            population=(
                PeerClassSpec(name="rest"),
                PeerClassSpec(name="quarter", fraction=0.25),
                PeerClassSpec(name="three", count=3),
            ),
        )
        counts = {c.name: c.count for c in resolve_population(config)}
        assert counts == {"rest": 5, "quarter": 2, "three": 3}

    def test_none_fields_inherit_globals(self):
        config = SimulationConfig(
            num_peers=10,
            upload_capacity_kbit=60.0,
            scheduler_mode="credit",
            exchange_mechanism="pairwise",
            population=(
                PeerClassSpec(name="a"),
                PeerClassSpec(name="b", count=4, upload_capacity_kbit=120.0),
            ),
        )
        a, b = resolve_population(config)
        assert a.upload_capacity_kbit == 60.0
        assert b.upload_capacity_kbit == 120.0
        assert a.service_discipline == b.service_discipline == "credit"
        assert a.exchange_mechanism == b.exchange_mechanism == "pairwise"
        assert a.storage_min_objects == config.storage_min_objects

    def test_zero_count_class_allowed(self):
        config = SimulationConfig(
            num_peers=10,
            population=(
                PeerClassSpec(name="a"),
                PeerClassSpec(name="b", count=0),
            ),
        )
        counts = {c.name: c.count for c in resolve_population(config)}
        assert counts == {"a": 10, "b": 0}

    def test_legacy_derivation_matches_properties(self):
        # Odd populations: one rounding, applied exactly once.
        config = SimulationConfig(num_peers=7, freeloader_fraction=0.5)
        resolved = resolve_population(config)
        counts = {c.name: c.count for c in resolved}
        assert counts == {
            "sharer": config.num_sharers,
            "freeloader": config.num_freeloaders,
        }
        assert [c.behavior.shares for c in resolved] == [True, False]

    def test_population_normalized_to_tuple(self):
        config = SimulationConfig(population=[PeerClassSpec(name="all", count=200)])
        assert isinstance(config.population, tuple)

    def test_population_in_to_dict(self):
        config = SimulationConfig(
            population=(PeerClassSpec(name="all", fraction=1.0),)
        )
        dumped = config.to_dict()
        assert dumped["population"][0]["name"] == "all"
        assert dumped["population"][0]["fraction"] == 1.0


class TestAssignment:
    def test_assignment_covers_every_peer(self):
        config = SimulationConfig(
            num_peers=30,
            population=(
                PeerClassSpec(name="a"),
                PeerClassSpec(name="b", count=7),
                PeerClassSpec(name="c", fraction=0.3),
            ),
        )
        classes = resolve_population(config)
        assignment = assign_peer_classes(classes, 30, RandomSource(5))
        assert sorted(assignment) == list(range(30))
        by_name = {}
        for cls in assignment.values():
            by_name[cls.name] = by_name.get(cls.name, 0) + 1
        assert by_name == {"a": 14, "b": 7, "c": 9}

    def test_assignment_is_deterministic(self):
        config = SimulationConfig(num_peers=20)
        classes = resolve_population(config)
        first = assign_peer_classes(classes, 20, RandomSource(9))
        second = assign_peer_classes(classes, 20, RandomSource(9))
        assert {p: c.name for p, c in first.items()} == {
            p: c.name for p, c in second.items()
        }

    def test_legacy_assignment_matches_old_sample(self):
        # The derived two-class assignment must consume the "behavior"
        # stream exactly as the pre-population code did.
        config = SimulationConfig(num_peers=20, freeloader_fraction=0.4)
        classes = resolve_population(config)
        assignment = assign_peer_classes(classes, 20, RandomSource(config.seed))
        expected = set(
            RandomSource(config.seed).sample(
                range(20), config.num_freeloaders, stream="behavior"
            )
        )
        actual = {p for p, c in assignment.items() if c.name == "freeloader"}
        assert actual == expected


class TestLegacyEquivalence:
    def test_legacy_config_bit_identical_to_derived_population(self):
        # The refactor's core guarantee: a config built from the legacy
        # globals produces a bit-identical summary to the same config
        # with the two-class population spelled out explicitly.
        legacy = small_config(
            freeloader_fraction=0.5,
            exchange_mechanism="2-5-way",
            scheduler_mode="fifo",
            duration=6000.0,
            seed=11,
        )
        explicit = legacy.replace(
            population=two_class(count=legacy.num_freeloaders)
        )
        first = run_simulation(legacy)
        second = run_simulation(explicit)
        assert first.summary == second.summary
        assert first.events_fired == second.events_fired

    def test_legacy_equivalence_under_credit_discipline(self):
        legacy = small_config(
            exchange_mechanism="none",
            scheduler_mode="credit",
            duration=4000.0,
            seed=3,
        )
        explicit = legacy.replace(
            population=two_class(count=legacy.num_freeloaders)
        )
        assert run_simulation(legacy).summary == run_simulation(explicit).summary


class TestPerClassMetrics:
    @pytest.fixture(scope="class")
    def legacy_result(self):
        return run_with_records(
            small_config(exchange_mechanism="2-5-way", duration=6000.0, seed=5)
        )

    def test_by_class_views_match_legacy_fields(self, legacy_result):
        summary = legacy_result.summary
        assert summary.mean_download_time_min_by_class["sharer"] == (
            summary.mean_download_time_sharers_min
        )
        assert summary.mean_download_time_min_by_class["freeloader"] == (
            summary.mean_download_time_freeloaders_min
        )
        assert summary.completed_downloads_by_class["sharer"] == (
            summary.completed_downloads_sharers
        )
        assert summary.completed_downloads_by_class["freeloader"] == (
            summary.completed_downloads_freeloaders
        )
        assert summary.volume_per_peer_mb_by_class["sharer"] == pytest.approx(
            summary.volume_per_sharer_mb
        )
        assert summary.volume_per_peer_mb_by_class["freeloader"] == pytest.approx(
            summary.volume_per_freeloader_mb
        )

    def test_class_sizes_reported(self, legacy_result):
        config = legacy_result.config
        assert legacy_result.summary.class_sizes == {
            "sharer": config.num_sharers,
            "freeloader": config.num_freeloaders,
        }

    def test_records_carry_class_labels(self, legacy_result):
        assert legacy_result.metrics.downloads
        for record in legacy_result.metrics.downloads:
            assert record.class_name in ("sharer", "freeloader")
        for session in legacy_result.metrics.sessions:
            assert session.requester_class in ("sharer", "freeloader")


class TestPerPeerCapacity:
    def test_class_capacity_reaches_slot_pools(self):
        config = small_config(
            upload_capacity_kbit=80.0,
            download_capacity_kbit=800.0,
            population=(
                PeerClassSpec(name="fast", upload_capacity_kbit=160.0),
                PeerClassSpec(
                    name="slow",
                    count=10,
                    upload_capacity_kbit=20.0,
                    download_capacity_kbit=100.0,
                ),
            ),
        )
        ctx = FileSharingSimulation(config).build()
        fast = [p for p in ctx.peers.values() if p.class_name == "fast"]
        slow = [p for p in ctx.peers.values() if p.class_name == "slow"]
        assert len(slow) == 10 and fast
        for peer in fast:
            assert peer.upload_pool.total == 16
            assert peer.download_pool.total == 80  # inherited global
        for peer in slow:
            assert peer.upload_pool.total == 2
            assert peer.download_pool.total == 10

    def test_class_storage_and_interest_ranges_apply(self):
        config = small_config(
            population=(
                PeerClassSpec(name="default"),
                PeerClassSpec(
                    name="hoarder",
                    count=8,
                    storage_min_objects=20,
                    storage_max_objects=20,
                    categories_per_peer_min=1,
                    categories_per_peer_max=1,
                ),
            ),
        )
        ctx = FileSharingSimulation(config).build()
        hoarders = [p for p in ctx.peers.values() if p.class_name == "hoarder"]
        assert len(hoarders) == 8
        for peer in hoarders:
            assert peer.store.capacity == 20
            assert len(peer.profile.category_ids) == 1


class TestMixedMechanisms:
    def test_mixed_mechanism_smoke_run(self):
        # Half the sharers run exchanges, half do not; freeloaders never.
        config = small_config(
            duration=6000.0,
            seed=7,
            population=(
                PeerClassSpec(
                    name="holdout", behavior="sharer", exchange_mechanism="none"
                ),
                PeerClassSpec(
                    name="adopter",
                    behavior="sharer",
                    exchange_mechanism="2-5-way",
                    fraction=0.25,
                ),
                PeerClassSpec(
                    name="freeloader",
                    behavior="freeloader",
                    exchange_mechanism="none",
                    fraction=0.5,
                ),
            ),
        )
        result = run_with_records(config)
        summary = result.summary
        assert sum(summary.completed_downloads_by_class.values()) > 0
        assert set(summary.class_sizes) == {"holdout", "adopter", "freeloader"}
        # Non-adopters can never appear inside an exchange session.
        for session in result.metrics.sessions:
            if session.requester_class in ("holdout", "freeloader"):
                assert not session.traffic_class.is_exchange

    def test_mixed_disciplines_smoke_run(self):
        config = small_config(
            duration=4000.0,
            exchange_mechanism="none",
            population=(
                PeerClassSpec(name="fifo-sharer", service_discipline="fifo"),
                PeerClassSpec(
                    name="credit-sharer", service_discipline="credit", fraction=0.25
                ),
                PeerClassSpec(
                    name="kazaa-freeloader",
                    behavior="freeloader",
                    service_discipline="participation",
                    fraction=0.5,
                ),
            ),
        )
        ctx = FileSharingSimulation(config).build()
        disciplines = {p.class_name: type(p.discipline) for p in ctx.peers.values()}
        assert disciplines == {
            "fifo-sharer": FifoDiscipline,
            "credit-sharer": CreditDiscipline,
            "kazaa-freeloader": ParticipationDiscipline,
        }


class TestDisciplineFactory:
    def test_unknown_discipline_rejected(self):
        with pytest.raises(ConfigError):
            make_discipline("lottery", 1, shares=True, fake_participation=True)

    def test_participation_freeloader_cheats(self):
        discipline = make_discipline(
            "participation", 1, shares=False, fake_participation=True
        )
        assert discipline.participation.cheats

    def test_participation_sharer_honest(self):
        discipline = make_discipline(
            "participation", 1, shares=True, fake_participation=True
        )
        assert not discipline.participation.cheats

    @pytest.mark.parametrize("name", ["fifo", "credit"])
    def test_cheat_independent_of_own_serving_discipline(self, name):
        # The claim is the requester's lie, read by participation-
        # disciplined *servers* — a freeloader fakes it even when its
        # own (never exercised) serving discipline is FIFO or credit.
        discipline = make_discipline(name, 1, shares=False, fake_participation=True)
        assert discipline.participation.cheats

    @pytest.mark.parametrize("name", ["fifo", "credit", "participation"])
    def test_flag_off_means_honest(self, name):
        discipline = make_discipline(name, 1, shares=False, fake_participation=False)
        assert not discipline.participation.cheats

    def test_mixed_population_freeloaders_still_cheat(self):
        # Regression for the mixed case: participation-disciplined
        # sharers must see freeloaders' faked levels even though the
        # freeloader class itself is FIFO-disciplined.
        config = small_config(
            scheduler_mode="fifo",
            population=(
                PeerClassSpec(name="kazaa", service_discipline="participation"),
                PeerClassSpec(
                    name="leech",
                    behavior="freeloader",
                    service_discipline="fifo",
                    fraction=0.5,
                ),
            ),
        )
        ctx = FileSharingSimulation(config).build()
        leeches = [p for p in ctx.peers.values() if p.class_name == "leech"]
        assert leeches
        assert all(p.participation.cheats for p in leeches)
