"""Tests for transfer sessions: blocks, slots, termination, records."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.metrics.records import TerminationReason, TrafficClass
from repro.network.transfer import Transfer, TransferState

from tests.helpers import build_peer, give, make_ctx, small_config


def setup_pair(config=None):
    ctx = make_ctx(config or small_config())
    provider = build_peer(ctx, 1, mechanism="none")
    requester = build_peer(ctx, 2, mechanism="none")
    give(ctx, provider, 0)
    download = requester.start_download(ctx.catalog.object(0))
    # Tear down the auto-started normal transfer so tests drive their own.
    for transfer in list(download.transfers.values()):
        transfer.terminate(TerminationReason.REQUESTER_CANCELLED, requeue=False)
    ctx.metrics.sessions.clear()
    return ctx, provider, requester, download


class TestLifecycle:
    def test_start_acquires_both_slots(self):
        ctx, provider, requester, download = setup_pair()
        transfer = Transfer(ctx, provider, requester, download)
        transfer.start()
        assert provider.upload_pool.in_use == 1
        assert requester.download_pool.in_use == 1
        assert download.transfer_from(1) is transfer

    def test_double_start_rejected(self):
        ctx, provider, requester, download = setup_pair()
        transfer = Transfer(ctx, provider, requester, download)
        transfer.start()
        with pytest.raises(ProtocolError):
            transfer.start()

    def test_blocks_flow_until_completion(self):
        config = small_config()  # 1 MB objects, 1024-kbit blocks => 8 blocks
        ctx, provider, requester, download = setup_pair(config)
        transfer = Transfer(ctx, provider, requester, download)
        transfer.start()
        # One block takes 1024/10 = 102.4 s; 8 blocks complete the object.
        ctx.engine.run(until=8 * 102.4 + 1.0)
        assert download.completed
        assert 0 in requester.store
        assert transfer.state is TransferState.TERMINATED
        assert ctx.metrics.counters["session.reason.completed"] == 1

    def test_completion_releases_slots(self):
        ctx, provider, requester, download = setup_pair()
        Transfer(ctx, provider, requester, download).start()
        ctx.engine.run(until=2000.0)
        assert provider.upload_pool.in_use == 0
        assert requester.download_pool.in_use == 0

    def test_terminate_is_idempotent(self):
        ctx, provider, requester, download = setup_pair()
        transfer = Transfer(ctx, provider, requester, download)
        transfer.start()
        transfer.terminate(TerminationReason.PEER_OFFLINE)
        transfer.terminate(TerminationReason.PEER_OFFLINE)
        assert provider.upload_pool.in_use == 0
        assert len(ctx.metrics.sessions) == 1

    def test_terminate_returns_in_flight_block(self):
        ctx, provider, requester, download = setup_pair()
        transfer = Transfer(ctx, provider, requester, download)
        transfer.start()
        assert download.in_flight_blocks == 1
        transfer.terminate(TerminationReason.PEER_OFFLINE)
        assert download.in_flight_blocks == 0
        assert download.unassigned_blocks == download.total_blocks

    def test_session_record_fields(self):
        ctx, provider, requester, download = setup_pair()
        transfer = Transfer(ctx, provider, requester, download)
        transfer.start()
        ctx.engine.run(until=300.0)  # a couple of blocks
        transfer.terminate(TerminationReason.PREEMPTED)
        record = ctx.metrics.sessions[-1]
        assert record.provider_id == 1
        assert record.requester_id == 2
        assert record.traffic_class is TrafficClass.NON_EXCHANGE
        assert record.reason is TerminationReason.PREEMPTED
        assert record.kbit_transferred > 0
        assert record.start_time >= record.request_time

    def test_multi_source_blocks_are_disjoint(self):
        ctx = make_ctx(small_config())
        provider_a = build_peer(ctx, 1, mechanism="none")
        provider_b = build_peer(ctx, 2, mechanism="none")
        requester = build_peer(ctx, 3, mechanism="none")
        give(ctx, provider_a, 0)
        give(ctx, provider_b, 0)
        download = requester.start_download(ctx.catalog.object(0))
        ctx.engine.run(until=1.0)
        assert download.active_sources == 2
        ctx.engine.run(until=5000.0)
        assert download.completed
        # Exactly total_blocks block-deliveries happened across sources.
        delivered = sum(
            s.kbit_transferred for s in ctx.metrics.sessions
            if s.requester_id == 3
        )
        assert delivered == pytest.approx(
            download.total_blocks * ctx.config.block_size_kbit
        )

    def test_exhausted_source_frees_slot_without_requeue(self):
        ctx = make_ctx(small_config())
        provider_a = build_peer(ctx, 1, mechanism="none")
        provider_b = build_peer(ctx, 2, mechanism="none")
        requester = build_peer(ctx, 3, mechanism="none")
        give(ctx, provider_a, 0)
        give(ctx, provider_b, 0)
        requester.start_download(ctx.catalog.object(0))
        ctx.engine.run(until=5000.0)
        exhausted = [
            s for s in ctx.metrics.sessions
            if s.reason is TerminationReason.EXHAUSTED
        ]
        completed = [
            s for s in ctx.metrics.sessions
            if s.reason is TerminationReason.COMPLETED
        ]
        assert len(completed) == 1
        assert len(exhausted) == 1  # the slower source ran out of blocks
