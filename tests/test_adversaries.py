"""Adversarial populations (paper §V): attacks, defense, robustness harness.

Three layers:

* unit tests over :mod:`repro.security.adversaries` — enrollment,
  the admission gate, whitewashing, sybil rings, the audit;
* hypothesis property tests over the attack primitives — peer ids are
  never reused across whitewash cycles and a retired identity stays
  departed, and a sybil ring cross-reports its best member's standing;
* the seed-pinned robustness-ordering test: under whitewashing at
  smoke/seed42, honest-peer degradation (the
  ``honest_download_inflation`` metric — mean honest download time over
  mean adversary download time) ranks exchange <= participation <=
  credit, because exchange pays only for simultaneous reciprocity while
  credit and participation standings are launderable.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ProtocolError
from repro.experiments.presets import (
    ADVERSARIAL_ATTACKS,
    adversarial_config,
    adversarial_population,
    adversarial_scenario,
)
from repro.population import PeerClassSpec
from repro.scenario import IdentityWhitewash, SybilSpawn
from repro.security.adversaries import (
    REPORT_THRESHOLD,
    SUSPECT_LEVEL,
    SybilRing,
)
from repro.simulation import FileSharingSimulation, run_simulation

from tests.helpers import small_config


def adversarial_small_config(kind, fraction=0.25, behavior="freeloader", **overrides):
    population = (
        PeerClassSpec(name="sharer", behavior="sharer"),
        PeerClassSpec(
            name="attacker", behavior=behavior, fraction=fraction, adversary=kind
        ),
    )
    return small_config(population=population, **overrides)


def built_sim(kind="whitewash", **kwargs):
    sim = FileSharingSimulation(adversarial_small_config(kind, **kwargs))
    sim.build()
    return sim


def attacker_ids(sim):
    return sorted(sim.adversary.kind_of)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_unknown_adversary_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown adversary kind"):
            adversarial_small_config("middleman")

    def test_colluders_must_be_sharers(self):
        with pytest.raises(ConfigError, match="colluders must be sharers"):
            adversarial_small_config("collusion", behavior="freeloader")

    def test_colluding_sharers_accepted(self):
        config = adversarial_small_config("collusion", behavior="sharer")
        assert config.population[1].adversary == "collusion"

    def test_whitewash_count_positive(self):
        with pytest.raises(ConfigError, match="count"):
            adversarial_small_config(
                "whitewash", scenario=(IdentityWhitewash(10.0, count=0),)
            )

    def test_whitewash_class_must_declare_whitewash(self):
        with pytest.raises(ConfigError, match="whitewash"):
            adversarial_small_config(
                "sybil",
                scenario=(
                    IdentityWhitewash(10.0, count=1, class_name="attacker"),
                ),
            )

    def test_whitewash_needs_some_whitewash_class(self):
        with pytest.raises(ConfigError, match="whitewash"):
            small_config(scenario=(IdentityWhitewash(10.0, count=1),))

    def test_sybil_spawn_needs_two_identities(self):
        with pytest.raises(ConfigError, match="count"):
            adversarial_small_config(
                "sybil",
                scenario=(SybilSpawn(10.0, count=1, class_name="attacker"),),
            )

    @pytest.mark.parametrize(
        "attack,event",
        [
            ("whitewash", IdentityWhitewash(10.0, count=1.5)),
            ("sybil", SybilSpawn(10.0, count=2.5, class_name="attacker")),
        ],
        ids=["whitewash", "sybil"],
    )
    def test_non_integer_count_rejected(self, attack, event):
        with pytest.raises(ConfigError, match="must be an integer"):
            adversarial_small_config(attack, scenario=(event,))

    def test_sybil_spawn_class_must_declare_sybil(self):
        with pytest.raises(ConfigError, match="sybil"):
            adversarial_small_config(
                "whitewash",
                scenario=(SybilSpawn(10.0, count=2, class_name="attacker"),),
            )

    def test_sybil_spawn_unknown_class_rejected(self):
        with pytest.raises(ConfigError, match="unknown peer class"):
            adversarial_small_config(
                "sybil", scenario=(SybilSpawn(10.0, count=2, class_name="ghost"),)
            )


class TestSybilRing:
    def test_needs_two_members(self):
        with pytest.raises(ProtocolError, match=">= 2"):
            SybilRing([7])

    def test_duplicate_members_rejected(self):
        with pytest.raises(ProtocolError, match="duplicate"):
            SybilRing([7, 7])

    def test_principal_is_lowest_id(self):
        ring = SybilRing([9, 3, 5])
        assert ring.member_ids[0] == 3
        assert ring.member_ids == (3, 5, 9)


# ---------------------------------------------------------------------------
# enrollment & the admission gate
# ---------------------------------------------------------------------------


class TestEnrollment:
    def test_no_adversary_class_builds_no_state(self):
        sim = FileSharingSimulation(small_config())
        sim.build()
        assert sim.adversary is None
        assert sim.ctx.adversary is None

    def test_adversary_class_builds_state(self):
        sim = built_sim("whitewash")
        assert sim.adversary is not None
        assert sim.ctx.adversary is sim.adversary
        classes = {sim.ctx.peers[pid].class_name for pid in attacker_ids(sim)}
        assert classes == {"attacker"}
        assert set(sim.adversary.kind_of.values()) == {"whitewash"}

    def test_sybil_enrollment_fakes_participation(self):
        sim = built_sim("sybil")
        for peer_id in attacker_ids(sim):
            assert sim.ctx.peers[peer_id].participation.cheats

    def test_whitewash_enrollment_does_not_cheat(self):
        # Whitewashing is pure identity churn: each mechanism prices the
        # fresh identity by its own rules, so enrollment does not force
        # the KaZaA cheat (only the global freeloader switch would).
        sim = built_sim("whitewash", freeloaders_fake_participation=False)
        for peer_id in attacker_ids(sim):
            reporter = sim.ctx.peers[peer_id].participation
            assert not reporter.cheats
            assert reporter.claimed_level == reporter.honest_level

    def test_collusion_shares_one_clique_per_class(self):
        sim = built_sim("collusion", behavior="sharer")
        state = sim.adversary
        members = attacker_ids(sim)
        for peer_id in members:
            provider = sim.ctx.peers[peer_id]
            assert all(state.allows(provider, other) for other in members)

    def test_each_collusion_class_is_its_own_clique(self):
        population = (
            PeerClassSpec(name="sharer", behavior="sharer"),
            PeerClassSpec(name="ring-a", behavior="sharer", fraction=0.2, adversary="collusion"),
            PeerClassSpec(name="ring-b", behavior="sharer", fraction=0.2, adversary="collusion"),
        )
        sim = FileSharingSimulation(small_config(population=population))
        sim.build()
        state = sim.adversary
        by_class = {}
        for peer_id in attacker_ids(sim):
            by_class.setdefault(sim.ctx.peers[peer_id].class_name, []).append(peer_id)
        a, b = by_class["ring-a"], by_class["ring-b"]
        assert state.allows(sim.ctx.peers[a[0]], a[1])
        assert state.allows(sim.ctx.peers[b[0]], b[1])
        assert not state.allows(sim.ctx.peers[a[0]], b[0])
        assert not state.allows(sim.ctx.peers[b[0]], a[0])


class TestAdmissionGate:
    def test_colluder_refuses_outsiders(self):
        sim = built_sim("collusion", behavior="sharer")
        state = sim.adversary
        colluder = sim.ctx.peers[attacker_ids(sim)[0]]
        outsider = next(
            pid for pid in sorted(sim.ctx.peers) if pid not in state.kind_of
        )
        assert not state.allows(colluder, outsider)
        assert sim.ctx.metrics.counters["adversary.collusion_refusal"] == 1

    def test_colluder_serves_the_clique(self):
        sim = built_sim("collusion", behavior="sharer")
        state = sim.adversary
        first, second = attacker_ids(sim)[:2]
        assert state.allows(sim.ctx.peers[first], second)

    def test_honest_provider_refuses_banned(self):
        sim = built_sim("whitewash")
        state = sim.adversary
        banned = attacker_ids(sim)[0]
        honest = next(
            pid for pid in sorted(sim.ctx.peers) if pid not in state.kind_of
        )
        for reporter in range(1_000, 1_000 + REPORT_THRESHOLD):
            state.blacklist.report(reporter, banned)
        assert state.blacklist.is_banned(banned)
        assert not state.allows(sim.ctx.peers[honest], banned)
        assert sim.ctx.metrics.counters["adversary.blacklist_hit"] == 1

    def test_adversaries_do_not_enforce_the_blacklist(self):
        sim = built_sim("whitewash")
        state = sim.adversary
        first, second = attacker_ids(sim)[:2]
        for reporter in range(1_000, 1_000 + REPORT_THRESHOLD):
            state.blacklist.report(reporter, second)
        assert state.allows(sim.ctx.peers[first], second)


# ---------------------------------------------------------------------------
# attacks
# ---------------------------------------------------------------------------


class TestWhitewash:
    def test_non_whitewasher_rejected(self):
        sim = built_sim("sybil")
        with pytest.raises(ProtocolError, match="not a whitewashing"):
            sim.adversary.whitewash(sim.ctx.peers[attacker_ids(sim)[0]])

    def test_fresh_identity_allocated_old_retired(self):
        sim = built_sim("whitewash")
        state = sim.adversary
        old = sim.ctx.peers[attacker_ids(sim)[0]]
        before = max(sim.ctx.peers)
        fresh = state.whitewash(old)
        assert fresh.peer_id > before
        assert old.departed
        assert not fresh.departed
        assert fresh.class_name == old.class_name
        assert state.kind_of[fresh.peer_id] == "whitewash"
        # The old identity stays recorded: ids are never recycled.
        assert state.kind_of[old.peer_id] == "whitewash"

    def test_ban_evasion_counted(self):
        sim = built_sim("whitewash")
        state = sim.adversary
        victim = sim.ctx.peers[attacker_ids(sim)[0]]
        for reporter in range(1_000, 1_000 + REPORT_THRESHOLD):
            state.blacklist.report(reporter, victim.peer_id)
        fresh = state.whitewash(victim)
        assert sim.ctx.metrics.counters["adversary.blacklist_evasion"] == 1
        assert sim.ctx.metrics.counters["adversary.whitewash"] == 1
        # The whole point of the attack: the fresh identity is clean.
        assert not state.blacklist.is_banned(fresh.peer_id)


class TestSybilStanding:
    def test_ring_members_must_be_sybil(self):
        sim = built_sim("whitewash")
        members = [sim.ctx.peers[pid] for pid in attacker_ids(sim)[:2]]
        with pytest.raises(ProtocolError, match="not a sybil"):
            sim.adversary.form_ring(members)

    def test_ring_cross_reports_best_member(self):
        sim = built_sim("sybil")
        state = sim.adversary
        members = [sim.ctx.peers[pid] for pid in attacker_ids(sim)[:3]]
        state.form_ring(members)
        # One token upload by one member shields the whole farm.
        members[0].participation.record_uploaded(512.0)
        shield = members[0].participation.honest_level
        assert shield > 0.0
        for peer in members:
            assert state.standing(peer.peer_id) == shield


class TestAudit:
    def _suspect(self, sim, witnesses):
        """Make the first attacker audit-eligible with given witnesses."""
        peer = sim.ctx.peers[attacker_ids(sim)[0]]
        peer.participation.downloaded_kbit = sim.config.object_size_kbit
        peer.pending[999] = SimpleNamespace(
            registered_at=set(witnesses), transfers={}
        )
        return peer

    def _honest_ids(self, sim, n):
        state = sim.adversary
        honest = [
            pid for pid in sorted(sim.ctx.peers) if pid not in state.kind_of
        ]
        return honest[:n]

    def test_audit_bans_suspect_with_enough_witnesses(self):
        sim = built_sim("whitewash")
        peer = self._suspect(sim, self._honest_ids(sim, REPORT_THRESHOLD))
        assert sim.adversary.audit() == 1
        assert sim.adversary.blacklist.is_banned(peer.peer_id)
        assert sim.ctx.metrics.counters["adversary.blacklisted"] == 1

    def test_audit_is_idempotent_per_identity(self):
        sim = built_sim("whitewash")
        self._suspect(sim, self._honest_ids(sim, REPORT_THRESHOLD))
        assert sim.adversary.audit() == 1
        assert sim.adversary.audit() == 0  # already banned: no fresh ban

    def test_single_witness_is_not_enough(self):
        sim = built_sim("whitewash")
        peer = self._suspect(sim, self._honest_ids(sim, 1))
        assert sim.adversary.audit() == 0
        assert not sim.adversary.blacklist.is_banned(peer.peer_id)

    def test_light_extractors_are_not_suspects(self):
        sim = built_sim("whitewash")
        peer = self._suspect(sim, self._honest_ids(sim, REPORT_THRESHOLD))
        peer.participation.downloaded_kbit = (
            sim.config.object_size_kbit - 1.0
        )
        assert sim.adversary.audit() == 0

    def test_good_standing_is_not_suspect(self):
        sim = built_sim("whitewash")
        peer = self._suspect(sim, self._honest_ids(sim, REPORT_THRESHOLD))
        peer.participation.uploaded_kbit = peer.participation.downloaded_kbit
        assert peer.participation.honest_level >= SUSPECT_LEVEL
        assert sim.adversary.audit() == 0

    def test_adversaries_never_witness(self):
        sim = built_sim("whitewash")
        state = sim.adversary
        # Other attackers observing the suspect must not count.
        peer = self._suspect(sim, attacker_ids(sim)[1:][:REPORT_THRESHOLD])
        assert state.audit() == 0
        assert not state.blacklist.is_banned(peer.peer_id)


# ---------------------------------------------------------------------------
# property tests over the attack primitives
# ---------------------------------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(picks=st.lists(st.integers(0, 100), min_size=1, max_size=10))
def test_whitewash_never_reuses_identities(picks):
    """Monotonic ids and permanent departures under arbitrary whitewashing.

    However the whitewash cycle interleaves, every fresh identity gets
    a strictly larger id than anything seen before, so ``ctx.peers``
    stays in ascending id order, and every retired identity stays in
    the registry, departed and offline for good.
    """
    sim = built_sim("whitewash")
    state = sim.adversary
    peers = sim.ctx.peers
    seen = set(peers)
    retired = []
    for pick in picks:
        live = sorted(pid for pid in state.kind_of if not peers[pid].departed)
        victim = peers[live[pick % len(live)]]
        fresh = state.whitewash(victim)
        assert fresh.peer_id not in seen, "peer id was reused"
        assert fresh.peer_id > max(seen)
        seen.add(fresh.peer_id)
        retired.append(victim)
    assert list(peers) == sorted(seen)
    for victim in retired:
        victim.reconnect()
        assert peers[victim.peer_id] is victim
        assert victim.departed and not victim.online


@settings(max_examples=20, deadline=None)
@given(
    uploads=st.lists(st.floats(0.0, 1e5), min_size=2, max_size=5),
    downloads=st.lists(st.floats(0.0, 1e5), min_size=2, max_size=5),
)
def test_sybil_ring_cross_reports_its_best_member(uploads, downloads):
    """Every member shows the best member's honest level and claims the
    maximum — whatever volumes the ring moved."""
    sim = built_sim("sybil")
    state = sim.adversary
    members = [
        sim.ctx.peers[pid] for pid in attacker_ids(sim)[: len(uploads)]
    ]
    if len(members) < 2:
        return
    state.form_ring(members)
    for peer, up, down in zip(members, uploads, downloads):
        peer.participation.record_uploaded(up)
        peer.participation.record_downloaded(down)
    best = max(peer.participation.honest_level for peer in members)
    for peer in members:
        assert state.standing(peer.peer_id) == best
        assert peer.participation.claimed_level == 1.0  # faking participation


# ---------------------------------------------------------------------------
# presets & end-to-end determinism
# ---------------------------------------------------------------------------


class TestAdversarialPresets:
    def test_unknown_attack_rejected(self):
        with pytest.raises(ConfigError, match="unknown attack"):
            adversarial_population("teleport")
        with pytest.raises(ConfigError, match="unknown attack"):
            adversarial_scenario("teleport", small_config())

    def test_population_shape_is_attack_invariant(self):
        names = [
            tuple(spec.name for spec in adversarial_population(attack))
            for attack in ADVERSARIAL_ATTACKS
        ]
        assert len(set(names)) == 1  # identical class structure per cell

    def test_none_attack_has_no_adversaries(self):
        specs = adversarial_population("none")
        assert all(spec.adversary is None for spec in specs)

    def test_each_attack_marks_exactly_the_adversary_class(self):
        for attack in ("whitewash", "sybil", "collusion"):
            by_name = {s.name: s.adversary for s in adversarial_population(attack)}
            assert by_name == {
                "sharer": None,
                "freeloader": None,
                "adversary": attack,
            }

    def test_scenario_timelines(self):
        config = adversarial_config("smoke", "credit", "whitewash", 42)
        assert all(isinstance(e, IdentityWhitewash) for e in config.scenario)
        config = adversarial_config("smoke", "credit", "sybil", 42)
        assert all(isinstance(e, SybilSpawn) for e in config.scenario)
        for attack in ("none", "collusion"):
            assert adversarial_config("smoke", "credit", attack, 42).scenario == ()


def _shrunk_adversarial(mechanism, attack, seed=42):
    """An adversarial cell with a third of the smoke window."""
    config = adversarial_config("smoke", mechanism, attack, seed).replace(
        scenario=(), duration=12_000.0, warmup=3_000.0
    )
    return config.replace(scenario=adversarial_scenario(attack, config))


class TestDeterminism:
    @pytest.mark.parametrize("attack", ("whitewash", "sybil", "collusion"))
    def test_same_seed_same_world(self, attack):
        config = _shrunk_adversarial("credit", attack)
        first = run_simulation(config)
        second = run_simulation(config)
        assert first.events_fired == second.events_fired
        assert json.dumps(first.summary.to_dict()) == json.dumps(
            second.summary.to_dict()
        )

    def test_attacks_actually_fire(self):
        result = run_simulation(_shrunk_adversarial("credit", "whitewash"))
        counters = result.summary.counters
        assert counters.get("adversary.whitewash", 0) > 0
        assert result.summary.adversary_classes == ["adversary"]
        assert result.summary.adversary_volume_mb_by_class["adversary"] > 0.0
        assert result.summary.mean_download_time_honest_min is not None
        assert result.summary.mean_download_time_adversary_min is not None
        assert result.summary.honest_download_inflation is not None

    def test_sybil_rings_form(self):
        result = run_simulation(_shrunk_adversarial("credit", "sybil"))
        assert result.summary.counters.get("adversary.sybil_identities", 0) >= 2

    def test_colluders_refuse_outsiders(self):
        result = run_simulation(_shrunk_adversarial("credit", "collusion"))
        assert result.summary.counters.get("adversary.collusion_refusal", 0) > 0


# ---------------------------------------------------------------------------
# the headline: seed-pinned robustness ordering (ISSUE 10 acceptance)
# ---------------------------------------------------------------------------


class TestRobustnessOrdering:
    """Paper §V's ranking, pinned at smoke/seed42.

    ``honest_download_inflation`` is mean honest download time over mean
    adversary download time within one run: the higher it is, the more
    the mechanism rewards laundered identities over honest peers.
    Exchange pays only for simultaneous reciprocity, so a fresh
    identity buys nothing; participation restarts whitewashers at the
    bottom of the queue; eMule-style credit serves zero-credit
    strangers on patience alone, so it degrades most.
    """

    def test_whitewash_degradation_ranks_mechanisms(self):
        inflation = {}
        for mechanism in ("exchange", "participation", "credit"):
            config = adversarial_config("smoke", mechanism, "whitewash", 42)
            summary = run_simulation(config).summary
            assert summary.honest_download_inflation is not None
            inflation[mechanism] = summary.honest_download_inflation
        # Every launderable mechanism serves attackers better than
        # honest peers under whitewashing...
        assert all(value > 1.0 for value in inflation.values()), inflation
        # ...and the paper's robustness ordering holds.
        assert (
            inflation["exchange"]
            <= inflation["participation"]
            <= inflation["credit"]
        ), inflation
