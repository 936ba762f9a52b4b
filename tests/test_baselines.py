"""Tests for the eMule-credit and KaZaA-participation baselines."""

from __future__ import annotations

import pytest

from repro.baselines.credit import CreditLedger, credit_modifier, credit_queue_rank
from repro.baselines.participation import (
    MAX_LEVEL,
    ParticipationReporter,
    participation_priority,
)
from repro.errors import ProtocolError
from repro.units import KBIT_PER_MB


class TestCreditModifier:
    def test_below_one_mb_gives_one(self):
        assert credit_modifier(0.5 * KBIT_PER_MB, 100.0) == 1.0

    def test_clamped_to_ten(self):
        assert credit_modifier(100 * KBIT_PER_MB, 1.0) == 10.0

    def test_never_below_one(self):
        assert credit_modifier(2 * KBIT_PER_MB, 1000 * KBIT_PER_MB) == 1.0

    def test_ratio_rule(self):
        # 4 MB uploaded, 2 MB downloaded: ratio = 2*4/2 = 4;
        # alternative = sqrt(4 + 2) ~ 2.45 -> the lower wins.
        modifier = credit_modifier(4 * KBIT_PER_MB, 2 * KBIT_PER_MB)
        assert modifier == pytest.approx(2.449489, rel=1e-5)

    def test_zero_download_uses_alternative(self):
        modifier = credit_modifier(7 * KBIT_PER_MB, 0.0)
        assert modifier == pytest.approx(3.0)  # sqrt(7 + 2)

    def test_negative_rejected(self):
        with pytest.raises(ProtocolError):
            credit_modifier(-1.0, 0.0)

    def test_queue_rank(self):
        assert credit_queue_rank(100.0, 2.0) == 200.0
        with pytest.raises(ProtocolError):
            credit_queue_rank(-1.0, 2.0)


class TestCreditLedger:
    def test_volumes_accumulate(self):
        ledger = CreditLedger(owner_id=1)
        ledger.record_received(2, 100.0)
        ledger.record_received(2, 50.0)
        ledger.record_served(2, 30.0)
        assert ledger.volumes(2) == (150.0, 30.0)

    def test_unknown_peer_neutral(self):
        ledger = CreditLedger(owner_id=1)
        assert ledger.modifier(9) == 1.0
        assert ledger.volumes(9) == (0.0, 0.0)

    def test_contributor_ranked_above_stranger(self):
        ledger = CreditLedger(owner_id=1)
        ledger.record_received(2, 10 * KBIT_PER_MB)  # peer 2 gave us 10 MB
        waiting = 100.0
        assert ledger.rank(2, waiting) > ledger.rank(9, waiting)

    def test_patience_still_wins_eventually(self):
        # The paper's criticism: waiting long enough beats credit.
        ledger = CreditLedger(owner_id=1)
        ledger.record_received(2, 10 * KBIT_PER_MB)
        assert ledger.rank(9, 10_000.0) > ledger.rank(2, 100.0)


class TestParticipation:
    def test_honest_level_tracks_ratio(self):
        reporter = ParticipationReporter(1)
        reporter.record_uploaded(300.0)
        reporter.record_downloaded(600.0)
        assert reporter.honest_level == pytest.approx(0.5)
        assert reporter.claimed_level == reporter.honest_level

    def test_cheater_claims_max(self):
        reporter = ParticipationReporter(1, cheats=True)
        reporter.record_downloaded(1000.0)
        assert reporter.honest_level == 0.0
        assert reporter.claimed_level == MAX_LEVEL

    def test_negative_volumes_rejected(self):
        reporter = ParticipationReporter(1)
        with pytest.raises(ProtocolError):
            reporter.record_uploaded(-1.0)

    def test_priority_ordering(self):
        # Claimed level dominates; waiting breaks ties.
        high = participation_priority(1.0, 0.0)
        low_patient = participation_priority(0.0, 50_000.0)
        assert high > low_patient
        assert participation_priority(0.5, 10.0) > participation_priority(0.5, 5.0)

    def test_priority_validates_inputs(self):
        with pytest.raises(ProtocolError):
            participation_priority(1.5, 0.0)
        with pytest.raises(ProtocolError):
            participation_priority(0.5, -1.0)


class TestSchedulerIntegration:
    def test_credit_mode_serves_contributor_first(self):
        from tests.helpers import build_peer, give, make_ctx, small_config

        config = small_config(
            scheduler_mode="credit",
            exchange_mechanism="none",
            upload_capacity_kbit=10.0,  # one slot: ordering is observable
        )
        ctx = make_ctx(config)
        provider = build_peer(ctx, 1, mechanism="none")
        stranger = build_peer(ctx, 2, mechanism="none")
        contributor = build_peer(ctx, 3, mechanism="none")
        give(ctx, provider, 0)
        # The contributor has uploaded 2 MB to the provider in the past.
        provider.discipline.credit.record_received(3, 2 * KBIT_PER_MB)
        # The stranger registers FIRST; under FIFO it would be served first.
        stranger.start_download(ctx.catalog.object(0))
        contributor.start_download(ctx.catalog.object(0))
        ctx.engine.run(until=1.0)
        assert contributor.pending[0].active_sources == 1
        assert stranger.pending[0].active_sources == 0

    def test_participation_mode_is_subvertible(self):
        from tests.helpers import build_peer, give, make_ctx, small_config

        config = small_config(
            scheduler_mode="participation",
            exchange_mechanism="none",
            upload_capacity_kbit=10.0,
        )
        ctx = make_ctx(config)
        provider = build_peer(ctx, 1, mechanism="none")
        honest = build_peer(ctx, 2, mechanism="none")
        liar = build_peer(ctx, 3, shares=False, mechanism="none")
        give(ctx, provider, 0)
        liar.participation.cheats = True  # the one-line KaZaA hack
        honest.start_download(ctx.catalog.object(0))
        liar.start_download(ctx.catalog.object(0))
        ctx.engine.run(until=1.0)
        # The free-riding liar outranks the honest peer.
        assert liar.pending[0].active_sources == 1
        assert honest.pending[0].active_sources == 0
