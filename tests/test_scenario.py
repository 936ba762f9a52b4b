"""Scenario timeline engine: validation, determinism, world mutation."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.content.popularity import PopularityCache
from repro.content.workload import MAX_MISS_ATTEMPTS, RequestGenerator
from repro.errors import CapacityError, ConfigError
from repro.network.capacity import SlotPool
from repro.population import PeerClassSpec
from repro.scenario import (
    CapacityChange,
    DemandShift,
    FlashCrowd,
    MechanismRamp,
    PeerArrival,
    PeerDeparture,
    Phase,
)
from repro.simulation import FileSharingSimulation, run_simulation

from tests.helpers import (
    build_peer,
    make_ctx,
    recording_sim,
    run_with_records,
    small_config,
    tiny_catalog,
)


def scenario_config(*events, **overrides):
    overrides.setdefault("exchange_mechanism", "2-5-way")
    overrides.setdefault("seed", 7)
    return small_config(scenario=tuple(events), **overrides)


class TestScenarioValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError, match="time must be >= 0"):
            scenario_config(Phase(-1.0, "x"))

    def test_non_finite_time_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            scenario_config(Phase(float("inf"), "x"))

    def test_unknown_event_type_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario event"):
            scenario_config("not-an-event")

    def test_empty_phase_name_rejected(self):
        with pytest.raises(ConfigError, match="phase name"):
            scenario_config(Phase(0.0, ""))

    def test_arrival_needs_exactly_one_of_class_or_spec(self):
        with pytest.raises(ConfigError, match="exactly one"):
            scenario_config(PeerArrival(10.0, count=1))
        with pytest.raises(ConfigError, match="exactly one"):
            scenario_config(
                PeerArrival(
                    10.0, count=1, class_name="sharer", spec=PeerClassSpec(name="x")
                )
            )

    def test_arrival_unknown_class_rejected(self):
        with pytest.raises(ConfigError, match="unknown peer class"):
            scenario_config(PeerArrival(10.0, count=1, class_name="nope"))

    def test_arrival_spec_with_count_rejected(self):
        with pytest.raises(ConfigError, match="count/fraction"):
            scenario_config(
                PeerArrival(10.0, count=1, spec=PeerClassSpec(name="x", count=3))
            )

    def test_departure_count_positive(self):
        with pytest.raises(ConfigError, match="departure count"):
            scenario_config(PeerDeparture(10.0, count=0))

    def test_flash_crowd_needs_a_seed_provider(self):
        with pytest.raises(ConfigError, match="seed_providers"):
            scenario_config(FlashCrowd(10.0, seed_providers=0))

    def test_flash_crowd_category_range_checked(self):
        with pytest.raises(ConfigError, match="category_id"):
            scenario_config(FlashCrowd(10.0, category_id=10_000))

    def test_attract_fraction_range_checked(self):
        with pytest.raises(ConfigError, match="attract_fraction"):
            scenario_config(FlashCrowd(10.0, attract_fraction=1.5))

    def test_demand_shift_fraction_checked(self):
        with pytest.raises(ConfigError, match="fraction"):
            scenario_config(DemandShift(10.0, fraction=0.0))

    def test_ramp_unknown_class_and_mechanism_rejected(self):
        with pytest.raises(ConfigError, match="unknown peer class"):
            scenario_config(MechanismRamp(10.0, "nope", "2-5-way"))
        with pytest.raises(ConfigError):
            scenario_config(MechanismRamp(10.0, "sharer", "definitely-not"))

    def test_ramp_may_target_a_future_arrival_spec_class(self):
        config = scenario_config(
            PeerArrival(10.0, count=2, spec=PeerClassSpec(name="late")),
            MechanismRamp(20.0, "late", "pairwise"),
        )
        assert len(config.scenario) == 2

    def test_named_arrival_before_defining_spec_wave_rejected(self):
        # A named arrival needs a concrete class shape at fire time; a
        # spec class that only materializes later cannot provide one.
        with pytest.raises(ConfigError, match="before any spec wave"):
            scenario_config(
                PeerArrival(500.0, count=1, class_name="late"),
                PeerArrival(1000.0, count=2, spec=PeerClassSpec(name="late")),
            )

    def test_named_arrival_after_defining_spec_wave_accepted(self):
        config = scenario_config(
            PeerArrival(500.0, count=2, spec=PeerClassSpec(name="late")),
            PeerArrival(1000.0, count=1, class_name="late"),
        )
        sim = FileSharingSimulation(config)
        sim.run()
        late = [p for p in sim.ctx.peers.values() if p.class_name == "late"]
        assert len(late) == 3

    def test_capacity_change_must_change_something(self):
        with pytest.raises(ConfigError, match="changes nothing"):
            scenario_config(CapacityChange(10.0, "sharer"))

    def test_capacity_change_below_slot_rejected(self):
        with pytest.raises(ConfigError, match="below one"):
            scenario_config(CapacityChange(10.0, "sharer", upload_capacity_kbit=1.0))

    @pytest.mark.parametrize("field", ["upload_capacity_kbit", "download_capacity_kbit"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_capacity_change_non_finite_rejected(self, field, value):
        # ``nan < slot_kbit`` is False, so the below-one-slot check let
        # NaN through, and inf passes it; both only failed when the
        # change fired and the slot pool converted them to a slot count.
        with pytest.raises(ConfigError, match="finite"):
            scenario_config(CapacityChange(10.0, "sharer", **{field: value}))

    @pytest.mark.parametrize(
        "event",
        [
            PeerArrival(10.0, count=1.5, class_name="sharer"),
            PeerArrival(10.0, count=2.0, class_name="sharer"),
            PeerDeparture(10.0, count=1.5),
            PeerDeparture(10.0, count=True),
            FlashCrowd(10.0, count=1.5),
            FlashCrowd(10.0, seed_providers=1.5),
            FlashCrowd(10.0, category_id=1.5),
        ],
        ids=[
            "arrival-count",
            "arrival-integral-float-count",
            "departure-count",
            "departure-bool-count",
            "flash-count",
            "flash-seed-providers",
            "flash-category-id",
        ],
    )
    def test_non_integer_counts_rejected(self, event):
        # Each passed the range checks and raised TypeError (or indexed
        # a category by a float) only when the event fired.
        with pytest.raises(ConfigError, match="must be an integer"):
            scenario_config(event)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"upload_capacity_kbit": math.nan},
            {"download_capacity_kbit": math.inf},
            {"upload_capacity_kbit": 5.0},  # below one 10 kbit slot
            {"storage_min_objects": 9, "storage_max_objects": 3},
            {"categories_per_peer_min": 5},  # above the inherited max of 4
        ],
        ids=[
            "nan-upload",
            "inf-download",
            "upload-below-slot",
            "inverted-storage",
            "inverted-inherited-categories",
        ],
    )
    def test_arrival_spec_that_cannot_resolve_rejected(self, overrides):
        # The spec is resolved against the config at build, as the wave
        # resolves it when it fires; checking the spec alone let these
        # through to fail mid-run.
        spec = PeerClassSpec(name="x", **overrides)
        with pytest.raises(ConfigError, match="peer class 'x'"):
            scenario_config(PeerArrival(10.0, count=2, spec=spec))

    def test_scenario_list_coerced_to_tuple(self):
        config = scenario_config()  # baseline: a tuple already
        assert config.scenario == ()
        config = small_config(scenario=[Phase(0.0, "a")])
        assert isinstance(config.scenario, tuple)


class TestDeterminism:
    SCENARIO = (
        Phase(0.0, "steady"),
        Phase(2000.0, "boom"),
        PeerArrival(2000.0, count=4, class_name="sharer"),
        FlashCrowd(2500.0, count=2, seed_providers=3, attract_fraction=0.5),
        DemandShift(3000.0, fraction=0.25),
        Phase(4500.0, "decay"),
        PeerDeparture(4500.0, count=3),
    )

    def test_same_seed_same_scenario_identical(self):
        config = scenario_config(*self.SCENARIO, duration=6000.0)
        first = run_with_records(config)
        second = run_with_records(config)
        assert first.events_fired == second.events_fired
        assert first.summary.to_dict() == second.summary.to_dict()
        assert [
            (s.provider_id, s.requester_id, s.object_id, s.start_time, s.phase)
            for s in first.metrics.sessions
        ] == [
            (s.provider_id, s.requester_id, s.object_id, s.start_time, s.phase)
            for s in second.metrics.sessions
        ]

    def test_scenario_changes_results(self):
        base = scenario_config(duration=6000.0)
        dynamic = scenario_config(*self.SCENARIO, duration=6000.0)
        assert run_simulation(base).events_fired != run_simulation(
            dynamic
        ).events_fired

    def test_empty_scenario_config_is_the_default(self):
        # scenario=() must be byte-for-byte the closed system: the same
        # canonical dict, hence the same orchestrator fingerprint.
        from repro.experiments.orchestrator import config_fingerprint

        explicit = small_config(scenario=())
        implicit = small_config()
        assert explicit.to_dict() == implicit.to_dict()
        assert config_fingerprint(explicit) == config_fingerprint(implicit)


class TestArrivals:
    def test_arrival_grows_the_population(self):
        config = scenario_config(PeerArrival(1000.0, count=5, class_name="sharer"))
        sim = FileSharingSimulation(config)
        result = sim.run()
        assert len(sim.ctx.peers) == config.num_peers + 5
        assert result.summary.class_sizes["sharer"] == config.num_sharers + 5
        new_ids = range(config.num_peers, config.num_peers + 5)
        for peer_id in new_ids:
            peer = sim.ctx.peers[peer_id]
            assert peer.class_name == "sharer"
            assert peer.behavior.shares
            assert peer.workload is not None

    def test_arrivals_complete_downloads(self):
        config = scenario_config(
            PeerArrival(1000.0, count=6, class_name="freeloader"),
            duration=8000.0,
        )
        sim = recording_sim(config)
        sim.run()
        new_ids = set(range(config.num_peers, config.num_peers + 6))
        completed = [
            d for d in sim.ctx.metrics.downloads if d.peer_id in new_ids
        ]
        assert completed, "arrived peers never completed a download"

    def test_inline_spec_arrival(self):
        spec = PeerClassSpec(
            name="burst", behavior="sharer", upload_capacity_kbit=160.0
        )
        config = scenario_config(PeerArrival(1000.0, count=3, spec=spec))
        sim = FileSharingSimulation(config)
        result = sim.run()
        burst = [p for p in sim.ctx.peers.values() if p.class_name == "burst"]
        assert len(burst) == 3
        assert all(p.upload_pool.total == 16 for p in burst)
        assert result.summary.class_sizes["burst"] == 3


class TestDepartures:
    def test_departed_peers_never_return(self):
        config = scenario_config(
            PeerDeparture(1000.0, count=5),
            churn_enabled=True,
            churn_mean_online=800.0,
            churn_mean_offline=200.0,
            duration=6000.0,
        )
        sim = FileSharingSimulation(config)
        result = sim.run()
        departed = [p for p in sim.ctx.peers.values() if p.departed]
        assert len(departed) == 5
        assert all(not p.online for p in departed)
        # Departed sharers are fully unpublished: none of their stored
        # objects lists them as a provider.
        for peer in departed:
            for object_id in peer.store.object_ids():
                assert peer.peer_id not in sim.ctx.lookup.provider_view(object_id)
        assert result.summary.counters["scenario.peer_left"] == 5

    def test_departure_is_permanent_vs_reconnect(self):
        ctx = make_ctx()
        peer = build_peer(ctx, 0)
        peer.disconnect()
        peer.departed = True
        peer.reconnect()
        assert not peer.online

    def test_departure_before_bootstrap_issues_nothing(self):
        # Regression: peers retired before their staggered bootstrap
        # fires must not issue requests from beyond the grave — a dead
        # registration would sit in a live provider's IRQ forever.
        config = scenario_config(PeerDeparture(1.0, count=10), duration=4000.0)
        sim = FileSharingSimulation(config)
        sim.run()
        departed = [p for p in sim.ctx.peers.values() if p.departed]
        assert len(departed) == 10
        assert all(not p.pending for p in departed)
        departed_ids = {p.peer_id for p in departed}
        for peer in sim.ctx.peers.values():
            for entry in peer.irq.active_entries():
                assert entry.requester_id not in departed_ids

    def test_class_filtered_departure(self):
        config = scenario_config(
            PeerDeparture(1000.0, count=4, class_name="freeloader")
        )
        sim = FileSharingSimulation(config)
        result = sim.run()
        departed = [p for p in sim.ctx.peers.values() if p.departed]
        assert len(departed) == 4
        assert all(p.class_name == "freeloader" for p in departed)
        assert (
            result.summary.class_sizes["freeloader"]
            == config.num_freeloaders - 4
        )


    def test_candidates_alive_ascending_and_class_filtered(self):
        sim = FileSharingSimulation(scenario_config(Phase(0.0, "a")))
        ctx = sim.build()
        sim.retire_peer(ctx.peers[4])
        ctx.peers[7].disconnect()  # offline peers can still depart
        director = sim.scenario
        assert director._alive_peer_ids() == [i for i in range(20) if i != 4]
        assert director._alive_peer_ids("sharer") == [
            peer_id
            for peer_id, peer in ctx.peers.items()
            if peer.class_name == "sharer" and peer_id != 4
        ]
        assert director._alive_peer_ids("never-registered") == []


class TestFlashCrowd:
    def test_hot_objects_injected_seeded_and_downloaded(self):
        config = scenario_config(
            FlashCrowd(1000.0, count=2, seed_providers=4, attract_fraction=1.0),
            duration=8000.0,
        )
        sim = recording_sim(config)
        sim.build()
        before = sim.ctx.catalog.num_objects
        sim.run()
        catalog = sim.ctx.catalog
        assert catalog.num_objects == before + 2
        new_ids = {before, before + 1}
        hot_category = catalog.category(0)
        # Injected at the top rank: positions 0/1 of the hot category.
        assert {o.object_id for o in hot_category.objects[:2]} == new_ids
        # Every attracted peer now lists the hot category.
        attracted = [
            p
            for p in sim.ctx.peers.values()
            if 0 in p.profile.category_ids and not p.departed
        ]
        assert len(attracted) == len(
            [p for p in sim.ctx.peers.values() if not p.departed]
        )
        # The crowd actually moved the new content around.
        hot_sessions = [
            s for s in sim.ctx.metrics.sessions if s.object_id in new_ids
        ]
        assert hot_sessions, "no transfer session ever carried a hot object"

    def test_seed_copies_survive_overflow_eviction(self):
        # Seeds are pinned: a seed whose store runs over capacity must
        # evict around the hot object, never making it unlocatable
        # before the crowd finds it.
        config = scenario_config(
            FlashCrowd(1000.0, count=1, seed_providers=3, attract_fraction=0.5),
            storage_min_objects=3,
            storage_max_objects=4,  # tight stores: injection overflows
            duration=8000.0,
        )
        sim = FileSharingSimulation(config)
        sim.build()
        hot_id = sim.ctx.catalog.num_objects  # next id to be injected
        sim.run()
        seeds = [
            p for p in sim.ctx.peers.values() if p.store.is_pinned(hot_id)
        ]
        assert seeds, "no seed kept a pinned hot copy"
        assert all(hot_id in p.store for p in seeds)
        assert sim.ctx.lookup.provider_count(hot_id) > 0

    def test_all_sharers_offline_falls_back_to_offline_seeds(self):
        # Under heavy churn every sharer can be offline at fire time;
        # the seeds then land (pinned) on offline sharers and publish
        # when they reconnect, instead of orphaning the hot objects.
        config = scenario_config(
            FlashCrowd(100.0, count=1, seed_providers=2),
            duration=400.0,
            warmup=0.0,
        )
        sim = FileSharingSimulation(config)
        sim.build()
        hot_id = sim.ctx.catalog.num_objects
        sharers = [p for p in sim.ctx.peers.values() if p.behavior.shares]
        for peer in sharers:
            peer.disconnect()
        sim.ctx.engine.run(until=200.0)
        seeded = [p for p in sharers if hot_id in p.store]
        assert len(seeded) == 2
        assert sim.ctx.lookup.provider_count(hot_id) == 0  # still offline
        assert (
            sim.ctx.metrics.counters["scenario.flash_seeded_offline"] == 1
        )
        seeded[0].reconnect()
        assert sim.ctx.lookup.provider_count(hot_id) == 1

    def _fire_flash_crowd(self, prepare, seed_providers=2):
        config = scenario_config(
            FlashCrowd(100.0, count=1, seed_providers=seed_providers),
            duration=400.0,
            warmup=0.0,
        )
        sim = FileSharingSimulation(config)
        sim.build()
        hot_id = sim.ctx.catalog.num_objects
        sharers = [p for p in sim.ctx.peers.values() if p.behavior.shares]
        prepare(sim, sharers)
        sim.ctx.engine.run(until=200.0)
        seeded = [p for p in sharers if hot_id in p.store]
        return sim, hot_id, sharers, seeded

    def test_seeds_prefer_online_sharers(self):
        def prepare(sim, sharers):
            for peer in sharers[:3] + sharers[5:]:
                peer.disconnect()

        sim, hot_id, sharers, seeded = self._fire_flash_crowd(prepare)
        assert seeded == sharers[3:5]
        assert sim.ctx.lookup.provider_count(hot_id) == 2
        assert sim.ctx.metrics.counters["scenario.flash_seeded_offline"] == 0

    def test_offline_fallback_skips_departed_sharers(self):
        def prepare(sim, sharers):
            for peer in sharers[:4]:
                sim.retire_peer(peer)
            for peer in sharers[4:]:
                peer.disconnect()

        # More seeds than sharers: every eligible sharer is seeded.
        sim, hot_id, sharers, seeded = self._fire_flash_crowd(
            prepare, seed_providers=20
        )
        assert seeded == sharers[4:]
        assert sim.ctx.metrics.counters["scenario.flash_seeded_offline"] == 1

    def test_no_live_sharer_leaves_hot_objects_unseeded(self):
        def prepare(sim, sharers):
            for peer in sharers:
                sim.retire_peer(peer)

        sim, hot_id, sharers, seeded = self._fire_flash_crowd(prepare)
        assert seeded == []
        assert sim.ctx.lookup.provider_count(hot_id) == 0
        assert sim.ctx.metrics.counters["scenario.flash_unseeded"] == 1

    def test_catalog_injection_unit(self):
        catalog = tiny_catalog(num_categories=2, objects_per_category=3)
        obj = catalog.inject_object(1, size_kbit=2048.0)
        assert obj.object_id == 6  # ids are append-only
        assert catalog.object(obj.object_id) is obj
        assert catalog.category(1).objects[0] is obj
        assert catalog.category(1).size == 4
        assert catalog.num_objects == 7
        with pytest.raises(ConfigError):
            catalog.inject_object(99, size_kbit=2048.0)

    def test_with_category_profile(self):
        from repro.content.interests import InterestProfile

        profile = InterestProfile([3, 5], [0.75, 0.25])
        grown = profile.with_category(7)
        assert grown.category_ids == (3, 5, 7)
        # The new category enters at the favourite's weight.
        assert grown.weights[2] == pytest.approx(grown.weights[0])
        assert profile.category_ids == (3, 5)  # receiver untouched
        promoted = profile.with_category(5, boost=2.0)
        assert promoted.category_ids == (3, 5)
        assert promoted.weights[1] > promoted.weights[0]


class TestMechanismRampAndCapacity:
    def test_ramp_flips_class_policy(self):
        config = scenario_config(
            MechanismRamp(1000.0, "sharer", "pairwise"), duration=3000.0
        )
        sim = FileSharingSimulation(config)
        sim.run()
        sharers = [p for p in sim.ctx.peers.values() if p.class_name == "sharer"]
        assert all(p.policy.max_ring == 2 for p in sharers)
        # Later arrivals of the class would adopt the ramped mechanism.
        assert sim.class_by_name("sharer").exchange_mechanism == "pairwise"

    def test_ramp_before_spec_arrival_applies_to_the_wave(self):
        # Regression: a ramp may fire before the first wave of an
        # inline-spec class lands; the arrivals must adopt the ramped
        # mechanism, not the spec's (inherited) one.
        config = scenario_config(
            MechanismRamp(500.0, "late", "pairwise"),
            PeerArrival(1000.0, count=2, spec=PeerClassSpec(name="late")),
            duration=3000.0,
        )
        sim = FileSharingSimulation(config)
        sim.run()
        late = [p for p in sim.ctx.peers.values() if p.class_name == "late"]
        assert len(late) == 2
        assert all(p.policy.max_ring == 2 for p in late)
        assert sim.class_by_name("late").exchange_mechanism == "pairwise"

    def test_ramp_after_spec_arrival_covers_later_waves(self):
        config = scenario_config(
            PeerArrival(500.0, count=2, spec=PeerClassSpec(name="late")),
            MechanismRamp(1000.0, "late", "pairwise"),
            PeerArrival(1500.0, count=2, spec=PeerClassSpec(name="late")),
            duration=3000.0,
        )
        sim = FileSharingSimulation(config)
        sim.run()
        late = [p for p in sim.ctx.peers.values() if p.class_name == "late"]
        assert len(late) == 4
        assert all(p.policy.max_ring == 2 for p in late)

    def test_capacity_change_resizes_pools(self):
        config = scenario_config(
            CapacityChange(1000.0, "sharer", upload_capacity_kbit=160.0),
            duration=3000.0,
        )
        sim = FileSharingSimulation(config)
        sim.run()
        sharers = [p for p in sim.ctx.peers.values() if p.class_name == "sharer"]
        assert all(p.upload_pool.total == 16 for p in sharers)
        assert all(p.upload_capacity_kbit == 160.0 for p in sharers)

    def test_capacity_change_covers_later_arrivals(self):
        # A re-provision before the class's first spec wave (or between
        # waves) must shape the arrivals too, like mechanism ramps do.
        config = scenario_config(
            CapacityChange(500.0, "late", upload_capacity_kbit=160.0),
            PeerArrival(1000.0, count=2, spec=PeerClassSpec(name="late")),
            CapacityChange(1500.0, "sharer", upload_capacity_kbit=160.0),
            PeerArrival(2000.0, count=2, class_name="sharer"),
            duration=3000.0,
        )
        sim = FileSharingSimulation(config)
        sim.run()
        late = [p for p in sim.ctx.peers.values() if p.class_name == "late"]
        assert len(late) == 2
        assert all(p.upload_pool.total == 16 for p in late)
        new_sharers = [
            p
            for p in sim.ctx.peers.values()
            if p.class_name == "sharer" and p.peer_id >= config.num_peers
        ]
        assert len(new_sharers) == 2
        assert all(p.upload_pool.total == 16 for p in new_sharers)

    def test_ramped_peers_share_the_cached_policy_instance(self):
        config = scenario_config(
            MechanismRamp(500.0, "sharer", "pairwise"),
            duration=1000.0,
            warmup=0.0,
        )
        sim = FileSharingSimulation(config)
        sim.run()
        sharers = [p for p in sim.ctx.peers.values() if p.class_name == "sharer"]
        assert len({id(p.policy) for p in sharers}) == 1
        assert sharers[0].policy is sim.policy_for("pairwise")

    def test_slot_pool_resize_oversubscription(self):
        pool = SlotPool(40.0, 10.0)
        for _ in range(4):
            pool.acquire()
        pool.resize(20.0)  # shrink below in_use: running slots survive
        assert pool.total == 2
        assert pool.free == 0
        assert pool.full
        pool.release()
        pool.release()
        assert pool.free == 0  # still at the new cap
        pool.release()
        assert pool.free == 1
        with pytest.raises(CapacityError):
            pool.resize(5.0)  # below one slot


class TestPhases:
    def test_records_carry_phase_labels(self):
        config = scenario_config(
            Phase(0.0, "early"), Phase(3000.0, "late"), duration=6000.0, warmup=0.0
        )
        result = run_with_records(config)
        labels = {d.phase for d in result.metrics.downloads}
        assert labels == {"early", "late"}
        for record in result.metrics.downloads:
            expected = "early" if record.complete_time < 3000.0 else "late"
            assert record.phase == expected

    def test_summary_slices_per_phase(self):
        config = scenario_config(
            Phase(0.0, "early"), Phase(3000.0, "late"), duration=6000.0, warmup=0.0
        )
        summary = run_simulation(config).summary
        assert set(summary.completed_downloads_by_phase) == {"early", "late"}
        assert set(summary.mean_download_time_min_by_phase) == {"early", "late"}
        assert (
            sum(summary.completed_downloads_by_phase.values())
            == summary.completed_downloads_sharers
            + summary.completed_downloads_freeloaders
        )
        assert set(summary.exchange_session_fraction_by_phase) <= {"early", "late"}

    def test_closed_system_has_no_phase_slices(self):
        summary = run_simulation(scenario_config(duration=3000.0)).summary
        assert summary.mean_download_time_min_by_phase == {}
        assert summary.completed_downloads_by_phase == {}
        assert summary.exchange_session_fraction_by_phase == {}


class TestMaxMissAttempts:
    def test_generator_honours_the_bound(self):
        import random

        catalog = tiny_catalog(num_categories=1, objects_per_category=4)
        from repro.content.interests import InterestProfile

        profile = InterestProfile([0], [1.0])
        rand = random.Random(1)
        generator = RequestGenerator(
            catalog,
            profile,
            rand,
            object_factor=0.2,
            stored=range(4),  # everything is a cache hit
            pending={},
            locatable=range(4),
            popularity_cache=PopularityCache(),
        )
        assert generator.next_request() is None
        # The stream moved exactly as far as MAX_MISS_ATTEMPTS
        # candidates of two random() calls each would move it.
        expected = random.Random(1)
        for _ in range(2 * MAX_MISS_ATTEMPTS):
            expected.random()
        assert rand.getstate() == expected.getstate()


class TestScenarioEventSerialization:
    def test_events_survive_asdict(self):
        config = scenario_config(
            Phase(0.0, "a"),
            PeerArrival(10.0, count=2, spec=PeerClassSpec(name="x")),
            FlashCrowd(20.0, count=1, seed_providers=2),
        )
        dumped = config.to_dict()
        kinds = [event["kind"] for event in dumped["scenario"]]
        assert kinds == ["phase", "arrival", "flash_crowd"]
        assert dumped["scenario"][1]["spec"]["name"] == "x"

    def test_events_are_hashable_and_frozen(self):
        event = Phase(0.0, "a")
        assert hash(event) == hash(Phase(0.0, "a"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.time = 1.0


class TestScenarioFigures:
    def test_flashcrowd_and_swarm_growth_registered(self):
        from repro.experiments.figures import FIGURES

        assert "flashcrowd" in FIGURES
        assert "swarm-growth" in FIGURES

    def test_scenario_builders_validate_on_any_scale(self):
        from repro.experiments.figures import FIGURES

        for figure_id in ("flashcrowd", "swarm-growth"):
            for scale in ("smoke", "small", "scale", "paper"):
                grid = FIGURES[figure_id].build_grid(scale, 42)
                assert set(grid) == {"2-5-way", "none"}
                for config in grid.values():
                    assert config.scenario  # non-empty, validated timelines


def test_empty_scenario_build_matches_head_event_count():
    """The refactored spawn/retire lifecycle must replay the closed
    system exactly: the smoke base cell fires the same number of engine
    events as before the scenario engine existed (the golden fig7 table
    pins the metrics; this pins the event stream's length)."""
    import json
    import os

    from repro.experiments.presets import preset

    golden_path = os.path.join(
        os.path.dirname(__file__), "golden", "fig7_smoke_seed42_meta.json"
    )
    with open(golden_path, encoding="utf-8") as handle:
        golden = json.load(handle)
    result = run_with_records(preset("smoke", exchange_mechanism="2-5-way", seed=42))
    assert result.events_fired == golden["events_fired"]
    assert len(result.metrics.sessions) == golden["sessions"]
    assert len(result.metrics.downloads) == golden["downloads"]
