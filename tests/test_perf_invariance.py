"""Guards for the hot-path optimizations: faster, but bit-identical.

The perf work (exchange-search gating, lazy scheduler ordering, cached
lookup views, tree caches, heap tuples) must not change anything a
fixed-seed run can observe: the RNG stream shapes, the event order, the
metrics.  These tests pin that contract:

* a golden-file test holds the rendered fig7 smoke table byte-for-byte
  (one full simulation end to end, CDFs and all);
* targeted tests check each optimization actually *optimizes* (the
  gate skips idle searches, caches invalidate on change) without
  changing results;
* the two lookup RNG paths (shuffle under full coverage, sample under
  partial) are pinned so a future "normalization" cannot silently
  re-seed every historical result.
"""

from __future__ import annotations

import os
import random

from repro.core import exchange_manager
from repro.core.disciplines import make_discipline
from repro.core.irq import IncomingRequestQueue, RequestEntry
from repro.experiments import run_figure
from repro.network.lookup import LookupService

from tests.helpers import build_peer, give, make_ctx

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


class TestGoldenFigure:
    def test_fig7_smoke_table_byte_identical(self):
        """The fig7 smoke table must not move — regenerating it is a
        deliberate act (optimizations never qualify; model changes do)."""
        with open(os.path.join(GOLDEN_DIR, "fig7_smoke_seed42.txt")) as handle:
            golden = handle.read()
        table = run_figure("fig7", scale="smoke", seed=42)
        assert table.render() + "\n" == golden


class TestExchangeSearchGate:
    def _wired_pair(self):
        ctx = make_ctx()
        a = build_peer(ctx, 0)
        b = build_peer(ctx, 1)
        give(ctx, a, 0)
        give(ctx, b, 1)
        return ctx, a, b

    def test_idle_search_key_set_after_empty_search(self):
        ctx, a, _b = self._wired_pair()
        a.start_download(ctx.catalog.object(1))
        # Nothing requests from A, so the unrestricted search finds no
        # candidates and arms the gate.
        assert exchange_manager.try_form_exchanges(a) == 0
        assert a.idle_search_key is not None
        assert a.idle_search_key == exchange_manager.search_state_key(a)

    def test_gated_pass_skips_open_wants(self, monkeypatch):
        ctx, a, _b = self._wired_pair()
        a.start_download(ctx.catalog.object(1))
        exchange_manager.try_form_exchanges(a)
        calls = []
        original = exchange_manager.open_wants
        monkeypatch.setattr(
            exchange_manager, "open_wants",
            lambda *args, **kw: calls.append(1) or original(*args, **kw),
        )
        assert exchange_manager.try_form_exchanges(a) == 0
        assert calls == [], "gated pass must skip the provider-set rebuild"

    def test_wanted_object_mutation_reopens_the_gate(self):
        ctx, a, b = self._wired_pair()
        a.start_download(ctx.catalog.object(1))
        exchange_manager.try_form_exchanges(a)
        key = a.idle_search_key
        third = build_peer(ctx, 2)
        give(ctx, third, 1)  # a new provider for the object A wants
        assert exchange_manager.search_state_key(a) != key

    def test_unrelated_index_churn_keeps_the_gate_closed(self):
        ctx, a, b = self._wired_pair()
        a.start_download(ctx.catalog.object(1))
        exchange_manager.try_form_exchanges(a)
        key = a.idle_search_key
        give(ctx, b, 2)  # an object A has no pending request for
        assert exchange_manager.search_state_key(a) == key

    def test_incoming_request_reopens_the_gate_and_forms_the_ring(self):
        ctx, a, b = self._wired_pair()
        a.start_download(ctx.catalog.object(1))
        assert exchange_manager.try_form_exchanges(a) == 0
        # B's request lands in A's IRQ (version bump): the pairwise
        # 0<->1 ring is now feasible and the gate must not hide it.
        b.start_download(ctx.catalog.object(0))
        ctx.engine.run(until=1.0)
        assert a.exchange_upload_count == 1

    def test_binding_change_reopens_the_gate(self):
        ctx, a, _b = self._wired_pair()
        a.start_download(ctx.catalog.object(1))
        exchange_manager.try_form_exchanges(a)
        key = a.idle_search_key
        a.irq.note_binding_change()
        assert exchange_manager.search_state_key(a) != key


class TestDisciplineLazyOrdering:
    def _entries(self, n):
        # Arrival times at or before the (fresh) engine clock of zero.
        rand = random.Random(7)
        entries = []
        for i in range(n):
            entries.append(
                RequestEntry(
                    requester_id=i % 5 + 10,
                    object_id=i,
                    arrival_time=-rand.random() * 50.0,
                )
            )
        return entries

    def test_credit_heap_order_matches_stable_sort(self):
        ctx = make_ctx()
        peer = build_peer(ctx, 0)
        for i in range(5):
            build_peer(ctx, 10 + i)
        discipline = make_discipline("credit", 0, shares=True, fake_participation=False)
        peer.discipline = discipline
        entries = self._entries(12)
        # Seed asymmetric credit so ranks genuinely differ.
        for i, entry in enumerate(entries):
            discipline.credit.record_received(entry.requester_id, 1024.0 * (i % 3))
        now = peer.ctx.now
        expected = sorted(
            list(entries),
            key=lambda e: -discipline.credit.rank(
                e.requester_id, now - e.arrival_time + 1.0
            ),
        )
        assert list(discipline.service_iter(peer, entries)) == expected

    def test_fifo_service_iter_streams_input_order(self):
        ctx = make_ctx()
        peer = build_peer(ctx, 0)
        entries = self._entries(6)
        assert list(peer.discipline.service_iter(peer, entries)) == entries


class TestIrqSnapshotCache:
    def _entry(self, requester, obj):
        return RequestEntry(requester_id=requester, object_id=obj, arrival_time=0.0)

    def test_snapshot_cached_until_version_changes(self):
        irq = IncomingRequestQueue(capacity=10)
        irq.add(self._entry(2, 20))
        first = irq.snapshot()
        assert irq.snapshot() is first
        irq.add(self._entry(3, 30))
        second = irq.snapshot()
        assert second is not first
        assert [e.requester_id for e in second] == [2, 3]

    def test_snapshot_safe_across_mutation(self):
        irq = IncomingRequestQueue(capacity=10)
        irq.add(self._entry(2, 20))
        irq.add(self._entry(3, 30))
        snap = irq.snapshot()
        irq.remove(2, 20)
        # The held snapshot still lists both; the removed one is inactive.
        assert [e.requester_id for e in snap] == [2, 3]
        assert not snap[0].active
        assert [e.requester_id for e in irq.snapshot()] == [3]


class TestLookupDeterminism:
    """Pins the RNG stream *shape* of a lookup: one ``shuffle`` of the
    sorted providers other than the requester."""

    def _service(self):
        service = LookupService()
        for peer_id in range(5):
            service.register(peer_id, 7)
        return service

    def test_full_coverage_path_pinned(self):
        service = self._service()
        got = service.find_providers(7, requester_id=9, rand=random.Random(42))
        reference = [0, 1, 2, 3, 4]
        random.Random(42).shuffle(reference)
        assert got == reference
        # Bit-for-bit repeatable under the same seed.
        assert service.find_providers(7, 9, random.Random(42)) == got

    def test_requester_excluded_and_cache_fresh_per_call(self):
        service = self._service()
        first = service.find_providers(7, requester_id=3, rand=random.Random(1))
        assert 3 not in first
        # The shuffle must never leak into the cached sorted view.
        assert service._sorted_providers(7) == [0, 1, 2, 3, 4]

    def test_cache_invalidated_on_register_unregister(self):
        service = self._service()
        assert service._sorted_providers(7) == [0, 1, 2, 3, 4]
        version = service.object_versions()[7]
        service.unregister(2, 7)
        assert service.object_versions()[7] == version + 1
        assert service._sorted_providers(7) == [0, 1, 3, 4]
        service.register(9, 7)
        assert service.object_versions()[7] == version + 2
        assert service._sorted_providers(7) == [0, 1, 3, 4, 9]
