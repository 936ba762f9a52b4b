"""The simulator builds and runs with the cyclic garbage collector paused.

:func:`repro.simulation.collector_paused` is only sound because the
simulator creates no reference cycles while it builds or runs: a cycle
made per event would otherwise grow for the whole run.  These tests
hold that contract for every configuration family, and pin the pause's
own behaviour: no collection inside ``build()`` or ``run()`` besides
the build-start one, survivors promoted to the oldest generation, a
flat object count across back-to-back builds, and the caller's
collector state (enabled flag, frozen objects) left as it was found.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.core.disciplines import CreditDiscipline, ParticipationDiscipline
from repro.experiments.presets import (
    adoption_population,
    adversarial_population,
    adversarial_scenario,
    flash_crowd_scenario,
    swarm_growth_scenario,
)
from repro.network.transfer import Transfer
from repro.simulation import _INTERPRETER_FROZEN, FileSharingSimulation, collector_paused
from repro.strategy import StrategySpec
from tests.helpers import small_config

#: An 8-peer world that runs in tens of milliseconds.
TINY = dict(
    num_peers=8,
    num_categories=6,
    objects_per_category_max=6,
    object_size_mb=1.0,
    block_size_kbit=1024.0,
    storage_min_objects=2,
    storage_max_objects=4,
    duration=2000.0,
    warmup=500.0,
)


@pytest.fixture(autouse=True)
def restore_collector():
    """Leave the collector enabled, unfrozen and undebugged, as found."""
    enabled = gc.isenabled()
    yield
    gc.set_debug(0)
    gc.unfreeze()
    if enabled:
        gc.enable()
    else:
        gc.disable()


def cyclic_garbage():
    """Unreachable objects a full collection finds now, and their types."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        found = gc.collect()
        types = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return found, types.most_common(10)


def sessions(sim, result, calls):
    return sum(result.summary.session_counts.values())


def counter(name):
    return lambda sim, result, calls: result.summary.counters.get(name, 0)


def hook_calls(sim, result, calls):
    return calls


def cheating_ranks(sim, result, calls):
    cheats = any(p.participation.cheats for p in sim.ctx.peers.values())
    return calls if cheats else 0


def adversarial(attack):
    base = small_config(population=adversarial_population(attack), upload_capacity_kbit=40.0)
    return base.replace(scenario=adversarial_scenario(attack, base))


BASE = small_config()

#: name -> (config, method whose calls are counted or None, evidence).
#: The evidence must be positive: the family's path ran.
FAMILIES = {
    "none": (small_config(exchange_mechanism="none"), None, sessions),
    "pairwise": (small_config(exchange_mechanism="pairwise"), None, counter("ring.formed")),
    "2-5-way": (small_config(exchange_mechanism="2-5-way"), None, counter("ring.formed")),
    "5-2-way": (small_config(exchange_mechanism="5-2-way"), None, counter("ring.formed")),
    "credit": (
        small_config(exchange_mechanism="none", scheduler_mode="credit"),
        (CreditDiscipline, "rank"),
        hook_calls,
    ),
    "participation-honest": (
        small_config(
            exchange_mechanism="none",
            scheduler_mode="participation",
            freeloaders_fake_participation=False,
        ),
        (ParticipationDiscipline, "rank"),
        hook_calls,
    ),
    "participation-faked": (
        small_config(
            exchange_mechanism="none",
            scheduler_mode="participation",
            freeloaders_fake_participation=True,
        ),
        (ParticipationDiscipline, "rank"),
        cheating_ranks,
    ),
    "churn": (
        small_config(churn_enabled=True, churn_mean_online=2000.0, churn_mean_offline=500.0),
        None,
        counter("churn.online"),
    ),
    "downgrade": (
        small_config(ring_break_policy="downgrade", serve_partial=True),
        (Transfer, "downgrade_to_normal"),
        hook_calls,
    ),
    "flash-crowd": (
        BASE.replace(scenario=flash_crowd_scenario(BASE)),
        None,
        counter("scenario.flash_objects"),
    ),
    "swarm-growth": (
        BASE.replace(scenario=swarm_growth_scenario(BASE)),
        None,
        counter("scenario.peer_joined"),
    ),
    "whitewash": (adversarial("whitewash"), None, counter("adversary.whitewash")),
    "sybil": (adversarial("sybil"), None, counter("adversary.sybil_identities")),
    "collusion": (adversarial("collusion"), None, counter("adversary.collusion_refusal")),
    "strategy": (
        small_config(
            strategy=StrategySpec(
                rule="best-response",
                start=1000.0,
                revision_period=1000.0,
                window=2000.0,
            )
        ),
        None,
        lambda sim, result, calls: result.summary.strategy_switches,
    ),
    "adoption": (
        small_config(population=adoption_population(0.5), seed=3),
        None,
        counter("ring.formed"),
    ),
}


class TestNoReferenceCycles:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_build_and_run_leave_no_cyclic_garbage(self, family, monkeypatch):
        config, hook, evidence = FAMILIES[family]
        calls = []
        if hook is not None:
            owner, name = hook
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls.append(None)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        gc.disable()
        gc.collect()  # what earlier tests left
        sim = FileSharingSimulation(config)
        found, types = cyclic_garbage()
        assert found == 0, types
        result = sim.run()
        found, types = cyclic_garbage()
        assert found == 0, types
        assert evidence(sim, result, len(calls)) > 0, f"{family}: its path never ran"


class TestCollections:
    def test_build_collects_once_and_run_never(self):
        gc.enable()
        collections = []

        def probe(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        sim = FileSharingSimulation(small_config())
        gc.callbacks.append(probe)
        try:
            sim.build()
            during_build = list(collections)
            collections.clear()
            result = sim.run()
            during_run = list(collections)
        finally:
            gc.callbacks.remove(probe)
        assert result.events_fired > 0
        assert during_build == [2]
        assert during_run == []

    def test_run_promotes_its_survivors(self):
        # With the collector off, no young collection after the pause
        # can move the survivors on in the promotion's place.  Nothing
        # is frozen but what the interpreter parks on its own (CPython
        # 3.12's immortal objects).
        gc.disable()
        assert gc.get_freeze_count() <= _INTERPRETER_FROZEN
        FileSharingSimulation(small_config()).run()
        assert gc.get_freeze_count() == 0
        assert len(gc.get_objects(0)) < gc.get_threshold()[0]

    def test_back_to_back_builds_stay_flat(self):
        # A run world is cyclic garbage once dropped; each build must
        # free the one before it.  Without that collect every cell adds
        # its run world (~2,000 tracked objects here) to the count.
        config = small_config()
        tracked = []
        for _ in range(3):
            sim = FileSharingSimulation(config)
            sim.build()
            tracked.append(len(gc.get_objects()))
            sim.run()
        assert max(tracked) - min(tracked) < 200, tracked


class TestCallerState:
    def test_run_keeps_what_the_caller_froze(self):
        held = [[index] for index in range(1000)]
        gc.freeze()
        FileSharingSimulation(small_config(**TINY)).run()
        assert gc.get_freeze_count() >= len(held)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_restores_the_enabled_state(self, enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        FileSharingSimulation(small_config(**TINY)).run()
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_an_exception_restores_the_enabled_state(self, enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        with pytest.raises(RuntimeError):
            with collector_paused():
                assert not gc.isenabled()
                raise RuntimeError("inside the pause")
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == 0
