"""Adaptive strategy dynamics: validation, switching, determinism,
equilibria and the scenario/strategy tie-break contract."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import pytest

from repro.errors import ConfigError
from repro.experiments.presets import evolution_config, evolution_strategy, preset
from repro.metrics.records import StrategyEpochRecord, TerminationReason
from repro.population import PeerClassSpec
from repro.scenario import PeerArrival, Phase, StrategyShock
from repro.simulation import FileSharingSimulation, run_simulation
from repro.strategy import STATIC, STRATEGY_RULES, StrategySpec

from tests.helpers import (
    build_peer,
    give,
    make_ctx,
    recording_sim,
    run_with_records,
    small_config,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def dynamic_spec(**overrides):
    """A fast-revising spec for small test runs."""
    fields = dict(
        rule="best-response",
        revision_period=1000.0,
        window=3000.0,
        start=0.0,
        revision_probability=0.5,
        sharing_cost=4.0,
    )
    fields.update(overrides)
    return StrategySpec(**fields)


class TestSpecValidation:
    def test_default_is_static(self):
        assert STATIC.is_static
        assert StrategySpec().is_static
        assert not dynamic_spec().is_static

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError, match="unknown strategy rule"):
            StrategySpec(rule="tit-for-tat").validate()

    def test_all_declared_rules_accepted(self):
        for rule in STRATEGY_RULES:
            StrategySpec(rule=rule).validate()

    def test_bad_numbers_rejected(self):
        for overrides, match in (
            (dict(revision_period=0.0), "revision_period"),
            (dict(window=-1.0), "window"),
            (dict(start=-5.0), "start"),
            (dict(revision_probability=0.0), "revision_probability"),
            (dict(payoff_sensitivity=0.0), "payoff_sensitivity"),
            (dict(epsilon=1.5), "epsilon"),
            (dict(sharing_cost=-1.0), "sharing_cost"),
            (dict(exchange_weight=float("inf")), "exchange_weight"),
        ):
            with pytest.raises(ConfigError, match=match):
                StrategySpec(**overrides).validate()

    def test_config_validates_strategy(self):
        with pytest.raises(ConfigError, match="unknown strategy rule"):
            small_config(strategy=StrategySpec(rule="nope"))
        with pytest.raises(ConfigError, match="StrategySpec"):
            small_config(strategy="best-response")

    def test_class_spec_validates_strategy(self):
        with pytest.raises(ConfigError, match="StrategySpec"):
            small_config(
                population=(
                    PeerClassSpec(name="a", strategy="imitate"),  # type: ignore[arg-type]
                )
            )

    def test_class_strategy_inherits_global(self):
        spec = dynamic_spec()
        config = small_config(strategy=spec)
        for cls in config.resolved_population():
            assert cls.strategy == spec
        # Explicit per-class strategy wins over the global.
        config = small_config(
            strategy=spec,
            population=(
                PeerClassSpec(name="fixed", strategy=STATIC),
                PeerClassSpec(name="adaptive", fraction=0.5),
            ),
        )
        resolved = {cls.name: cls.strategy for cls in config.resolved_population()}
        assert resolved["fixed"].is_static
        assert resolved["adaptive"] == spec


class TestStaticBitIdentical:
    """Extends the PR 4 golden pins: a *static* strategy config replays
    the pre-strategy closed system exactly."""

    def _golden(self):
        path = os.path.join(GOLDEN_DIR, "fig7_smoke_seed42_meta.json")
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def test_explicit_static_spec_matches_golden_event_count(self):
        golden = self._golden()
        config = preset(
            "smoke", exchange_mechanism="2-5-way", seed=42, strategy=StrategySpec()
        )
        result = run_with_records(config)
        assert result.events_fired == golden["events_fired"]
        assert len(result.metrics.sessions) == golden["sessions"]
        assert len(result.metrics.downloads) == golden["downloads"]
        assert result.summary.sharing_fraction_by_epoch == []
        assert result.summary.equilibrium_sharing_fraction is None
        assert result.summary.strategy_switches == 0

    def test_static_config_builds_no_director(self):
        sim = FileSharingSimulation(small_config(strategy=StrategySpec()))
        sim.build()
        assert sim.strategy is None

    def test_static_and_absent_strategy_differ_only_in_fingerprint_input(self):
        # Same simulation outcome; the orchestrator cache key may differ
        # (the explicit spec is part of the config dump) but None stays
        # the canonical default form.
        assert small_config().to_dict()["strategy"] is None
        dumped = small_config(strategy=StrategySpec()).to_dict()
        assert dumped["strategy"]["rule"] == "static"


class TestSetSharing:
    def test_freeloader_convert_registers_store(self):
        ctx = make_ctx()
        peer = build_peer(ctx, 0, shares=False)
        give(ctx, peer, 0)
        assert ctx.lookup.provider_count(0) == 0
        assert peer.set_sharing(True)
        assert peer.behavior.shares
        assert ctx.lookup.provider_view(0) == {0}
        assert not peer.set_sharing(True)  # idempotent

    def test_sharer_convert_withdraws_service(self):
        ctx = make_ctx()
        provider = build_peer(ctx, 0)
        requester = build_peer(ctx, 1)
        give(ctx, provider, 0)
        download = requester.start_download(ctx.catalog.object(0))
        ctx.engine.run(until=5.0)  # serving begins
        assert provider.active_uploads()
        assert provider.set_sharing(False)
        assert not provider.behavior.shares
        assert not provider.active_uploads()
        assert ctx.lookup.provider_count(0) == 0
        assert len(provider.irq) == 0
        assert 0 not in download.registered_at or not download.registered_at
        reasons = {s.reason for s in ctx.metrics.sessions}
        assert TerminationReason.STOPPED_SHARING in reasons

    def test_convert_keeps_downloading(self):
        ctx = make_ctx()
        provider = build_peer(ctx, 0)
        requester = build_peer(ctx, 1)
        give(ctx, provider, 0)
        download = requester.start_download(ctx.catalog.object(0))
        requester.set_sharing(False)  # was a sharer, turns free-rider
        ctx.engine.run(until=5000.0)
        assert download.completed

    def test_offline_convert_defers_to_reconnect(self):
        ctx = make_ctx()
        peer = build_peer(ctx, 0)
        give(ctx, peer, 0)
        peer.disconnect()
        assert peer.set_sharing(False)
        peer.reconnect()
        # Reconnected as a free-rider: the store stays unpublished.
        assert peer.online and not peer.behavior.shares
        assert ctx.lookup.provider_count(0) == 0
        peer.set_sharing(True)
        assert ctx.lookup.provider_view(0) == {0}


class TestDynamicsRun:
    def test_switches_happen_and_are_deterministic(self):
        config = small_config(
            strategy=dynamic_spec(), duration=12_000.0, warmup=2_000.0, seed=7
        )
        first = run_simulation(config)
        second = run_simulation(config)
        assert first.summary.strategy_switches > 0
        assert first.events_fired == second.events_fired
        assert (
            first.summary.sharing_fraction_by_epoch
            == second.summary.sharing_fraction_by_epoch
        )
        assert first.summary.to_dict() == second.summary.to_dict()

    def test_all_rules_run(self):
        for rule in ("best-response", "imitate", "epsilon-greedy"):
            config = small_config(
                strategy=dynamic_spec(rule=rule),
                duration=8_000.0,
                warmup=2_000.0,
                seed=11,
            )
            summary = run_simulation(config).summary
            assert summary.sharing_fraction_by_epoch, rule
            assert summary.equilibrium_sharing_fraction is not None, rule

    def test_epoch_records_and_summary_fields_consistent(self):
        config = small_config(
            strategy=dynamic_spec(), duration=10_000.0, warmup=2_000.0, seed=7
        )
        result = run_with_records(config)
        epochs = result.metrics.strategy_epochs
        assert epochs
        assert [e.epoch for e in epochs] == list(range(1, len(epochs) + 1))
        assert all(e.enrolled == config.num_peers for e in epochs)
        summary = result.summary
        assert summary.final_sharing_fraction == epochs[-1].sharing_fraction
        assert len(summary.sharing_fraction_by_epoch) == len(epochs)
        assert summary.counters["strategy.epoch"] == len(epochs)

    def test_per_class_strategy_only_enrolls_that_class(self):
        config = small_config(
            population=(
                PeerClassSpec(name="fixed", behavior="sharer"),
                PeerClassSpec(
                    name="adaptive",
                    behavior="freeloader",
                    fraction=0.5,
                    strategy=dynamic_spec(),
                ),
            ),
            duration=6_000.0,
            warmup=1_000.0,
        )
        sim = recording_sim(config)
        result = sim.run()
        assert sim.strategy is not None
        adaptive = sum(
            1 for p in sim.ctx.peers.values() if p.class_name == "adaptive"
        )
        assert sim.strategy.enrolled_count == adaptive
        for epoch in result.metrics.strategy_epochs:
            assert epoch.enrolled == adaptive


class TestStrategyShock:
    def test_shock_validation(self):
        spec = dynamic_spec()
        with pytest.raises(ConfigError, match="changes nothing"):
            small_config(strategy=spec, scenario=(StrategyShock(100.0),))
        with pytest.raises(ConfigError, match="flip_fraction"):
            small_config(
                strategy=spec, scenario=(StrategyShock(100.0, flip_fraction=2.0),)
            )
        with pytest.raises(ConfigError, match="duration"):
            small_config(
                strategy=spec, scenario=(StrategyShock(100.0, payoff_bias=5.0),)
            )
        with pytest.raises(ConfigError, match="static population"):
            small_config(scenario=(StrategyShock(100.0, flip_fraction=0.5),))

    def test_flip_shock_flips_peers(self):
        config = small_config(
            strategy=dynamic_spec(revision_period=50_000.0),  # no epochs fire
            scenario=(StrategyShock(1_000.0, flip_fraction=1.0),),
            duration=2_000.0,
            warmup=500.0,
        )
        sim = FileSharingSimulation(config)
        result = sim.run()
        flips = result.summary.counters["strategy.shock_flip"]
        assert flips == config.num_peers
        sharers = sum(1 for p in sim.ctx.peers.values() if p.behavior.shares)
        # The initial split inverted: ex-freeloaders now share.
        assert sharers == config.num_freeloaders

    def test_bias_shock_forces_direction(self):
        base = dict(duration=8_000.0, warmup=1_000.0, seed=7)
        spec = dynamic_spec()  # huge bias saturates proportional switching
        subsidized = small_config(
            strategy=spec,
            scenario=(
                StrategyShock(1_500.0, payoff_bias=1e6, duration=1e5),
            ),
            **base,
        )
        scared = small_config(
            strategy=spec,
            scenario=(
                StrategyShock(1_500.0, payoff_bias=-1e6, duration=1e5),
            ),
            **base,
        )
        up = run_simulation(subsidized).summary
        down = run_simulation(scared).summary
        assert up.final_sharing_fraction > down.final_sharing_fraction

    def test_shock_without_live_director_is_noop(self):
        # The only strategy-enabled class arrives after the shock: the
        # shock fires into a world with no director yet.
        config = small_config(
            scenario=(
                StrategyShock(100.0, flip_fraction=1.0),
                # The arrival wave that makes the config strategy-enabled.
                PeerArrival(
                    5_000.0,
                    count=2,
                    spec=PeerClassSpec(name="late", strategy=dynamic_spec()),
                ),
            ),
            duration=2_000.0,  # ends before the wave lands
            warmup=500.0,
        )
        summary = run_simulation(config).summary
        assert summary.counters.get("scenario.strategy_shock_noop") == 1
        assert summary.strategy_switches == 0


class TestTieBreakOrdering:
    """Regression pin: scenario events scheduled at build time apply
    *before* a strategy revision at the same timestamp (the scenario
    director is constructed first, so its events carry smaller engine
    sequence numbers — ties break by seq)."""

    def test_phase_at_epoch_boundary_stamps_the_epoch(self):
        period = 1_000.0
        config = small_config(
            strategy=dynamic_spec(revision_period=period, start=0.0),
            scenario=(
                Phase(0.0, "before"),
                Phase(2 * period, "after"),  # exactly at the 2nd epoch
            ),
            duration=3_500.0,
            warmup=500.0,
        )
        result = run_with_records(config)
        epochs = {e.time: e.phase for e in result.metrics.strategy_epochs}
        assert epochs[period] == "before"
        # The Phase marker at t=2*period fired before the revision at
        # the same instant, so the epoch record carries the new label.
        assert epochs[2 * period] == "after"

    def test_flip_shock_at_epoch_boundary_applies_first(self):
        period = 1_000.0
        config = small_config(
            strategy=dynamic_spec(
                revision_period=period,
                start=0.0,
                # Make best response inert so the epoch only *observes*.
                revision_probability=1e-12,
            ),
            scenario=(StrategyShock(period, flip_fraction=1.0),),
            duration=1_500.0,
            warmup=100.0,
            seed=3,
        )
        sim = recording_sim(config)
        result = sim.run()
        epoch = result.metrics.strategy_epochs[0]
        assert epoch.time == period
        # The shock flipped everyone before the epoch measured the
        # population: the recorded sharing count is the inverted split.
        assert epoch.sharing == config.num_freeloaders


class TestEvolutionFigure:
    def test_registered_and_grids_validate_on_any_scale(self):
        from repro.experiments.figures import EVOLUTION_MECHANISMS, FIGURES

        assert "evolution" in FIGURES
        for scale in ("smoke", "small", "scale", "paper"):
            grid = FIGURES["evolution"].build_grid(scale, 42)
            assert set(grid) == set(EVOLUTION_MECHANISMS)
            for config in grid.values():
                assert not config.strategy.is_static

    def test_unknown_evolution_mechanism_rejected(self):
        with pytest.raises(ConfigError, match="evolution mechanism"):
            evolution_config("smoke", "tit-for-tat", 42)

    def test_evolution_strategy_scales_with_preset(self):
        spec, duration = evolution_strategy("smoke")
        assert duration == pytest.approx(30_000.0)
        assert spec.start == pytest.approx(9_000.0)
        assert spec.revision_period == pytest.approx(1_500.0)
        assert spec.window == pytest.approx(3 * spec.revision_period)

    def test_equilibrium_ordering_pinned_at_smoke_seed42(self):
        """The acceptance pin: exchange >= participation >= credit >=
        none in equilibrium sharing fraction at the default seed — the
        qualitative equilibria ordering of the game-theoretic related
        work (weak incentives collapse toward free-riding, honest
        participation and exchange priority sustain sharing)."""
        eqs = {}
        for mechanism in ("none", "credit", "participation", "exchange"):
            summary = run_simulation(evolution_config("smoke", mechanism, 42)).summary
            eqs[mechanism] = summary.equilibrium_sharing_fraction
            assert eqs[mechanism] is not None
        assert eqs["exchange"] >= eqs["participation"] >= eqs["credit"] >= eqs["none"]
        # And the incentive actually separates the ends of the spectrum.
        assert eqs["exchange"] >= 0.9
        assert eqs["none"] <= 0.2


class TestEpochRecordValidation:
    def test_sharing_count_bounds_checked(self):
        with pytest.raises(ValueError, match="sharing count"):
            StrategyEpochRecord(
                time=0.0,
                epoch=1,
                enrolled=2,
                sharing=3,
                revised=0,
                switched_to_sharing=0,
                switched_to_freeloading=0,
                mean_payoff_sharing=None,
                mean_payoff_freeloading=None,
            )

    def test_sharing_fraction(self):
        record = StrategyEpochRecord(
            time=0.0,
            epoch=1,
            enrolled=4,
            sharing=1,
            revised=0,
            switched_to_sharing=0,
            switched_to_freeloading=0,
            mean_payoff_sharing=None,
            mean_payoff_freeloading=None,
        )
        assert record.sharing_fraction == 0.25


def test_strategy_config_round_trips_through_dict():
    config = small_config(strategy=dynamic_spec())
    dumped = config.to_dict()
    assert dumped["strategy"]["rule"] == "best-response"
    # The orchestrator fingerprint distinguishes strategy configs.
    from repro.experiments.orchestrator import config_fingerprint

    assert config_fingerprint(config) != config_fingerprint(small_config())


class TestRowReader:
    """The director reads session/download rows at epoch time from a
    collector that hands each row over once and then releases it.

    The cell combines what could make that reader see different rows:
    the director is created lazily by a mid-run arrival wave (so its
    cursor starts at the current row count), and a flip shock moves
    ``_last_switch`` between epochs (so a row's filter depends on when
    it is read).  Its trajectory is pinned from a reader that kept
    every record.
    """

    #: ``(events_fired, summary sha256)`` of :meth:`cell`.
    PIN = (66087, "20964e2f644da7c1a1810dca591acf0ad49a54b3decdf36b172a995427fb0fc7")

    @staticmethod
    def cell():
        adaptive = PeerClassSpec(
            name="adaptive",
            behavior="freeloader",
            strategy=StrategySpec(
                rule="best-response",
                revision_period=1_000.0,
                window=3_000.0,
                revision_probability=1.0,
                payoff_sensitivity=1.0,
            ),
        )
        return preset(
            "smoke",
            exchange_mechanism="2-5-way",
            duration=16_000.0,
            warmup=3_000.0,
            scenario=(
                PeerArrival(time=2_000.0, count=20, spec=adaptive),
                StrategyShock(time=6_500.0, flip_fraction=0.5),
            ),
        )

    def test_lazy_director_and_flip_shock_pinned(self):
        sim = FileSharingSimulation(self.cell())
        sim.build()
        assert sim.strategy is None  # created by the arrival wave
        result = sim.run()
        summary = result.summary
        text = json.dumps(dataclasses.asdict(summary), sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert (result.events_fired, digest) == self.PIN
        assert summary.counters["strategy.shock_flip"] > 0
        assert summary.strategy_switches > summary.counters["strategy.shock_flip"]
