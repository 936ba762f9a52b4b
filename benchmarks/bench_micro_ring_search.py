"""Ablation A3 — ring-search microbenchmark.

Measures the candidate-search cost on synthetic IRQs of growing size,
which is the operation the exchange manager runs on every scheduling
pass.  This one uses pytest-benchmark's normal timing loop (it is a
microsecond-scale operation).
"""

from __future__ import annotations

import random

from repro.core.irq import IncomingRequestQueue, RequestEntry
from repro.core.request_tree import RequestTreeNode
from repro.core.ring_search import find_candidates


def _build_irq(num_entries: int, fanout: int, seed: int = 7) -> IncomingRequestQueue:
    rand = random.Random(seed)
    irq = IncomingRequestQueue(capacity=num_entries + 1)
    next_peer = 1000
    for index in range(num_entries):
        requester = 100 + index
        children = []
        for _ in range(fanout):
            grand = RequestTreeNode(next_peer + 1, rand.randrange(5000))
            children.append(
                RequestTreeNode(next_peer, rand.randrange(5000), (grand,))
            )
            next_peer += 2
        tree = RequestTreeNode(requester, None, tuple(children))
        irq.add(RequestEntry(requester, rand.randrange(5000), float(index), tree))
    return irq


def test_ring_search_speed(benchmark):
    irq = _build_irq(num_entries=64, fanout=4)
    # Wants whose provider sets partially intersect the indexed peers.
    indexed = sorted(irq.index_key_set())
    wants = {
        1: set(indexed[::7]),
        2: set(indexed[::11]),
        3: {999_999},  # a want nobody in the tree provides
    }

    result = benchmark(find_candidates, 1, irq, wants, 5)
    assert result, "the synthetic graph must contain ring candidates"
    for candidate in result:
        assert 2 <= candidate.size <= 5


def test_ring_search_scales_with_hits_not_entries(benchmark):
    # A large IRQ with a want that matches nothing must be near-free.
    irq = _build_irq(num_entries=512, fanout=4)
    wants = {1: {123456789}}
    result = benchmark(find_candidates, 1, irq, wants, 5)
    assert result == []
