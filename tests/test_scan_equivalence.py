"""The periodic scan's sweep and request sampler against the code they replace.

``Peer._replenish_downloads`` walks the pending map in place and copies
it only once it meets a starved download, and
``RequestGenerator.next_request`` skips its draws when nothing is
requestable, advancing the stream by what they would have consumed.
Both are meant to be exact, so a world run with the original
implementations (test-local copies below, patched in) and a world run
with the current ones must agree on every event, the summary, the perf
counters and the state of every RNG stream.  The worlds are eight
peers with tiny stores and categories, with and without churn, so that
downloads starve, get abandoned and profiles run dry.
"""

from __future__ import annotations

import dataclasses
import json
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import ExitStack
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.config import SimulationConfig
from repro.content.workload import MAX_MISS_ATTEMPTS, RequestGenerator, candidate_rows
from repro.network.peer import ABANDON_AFTER_LOOKUP_FAILURES, Peer
from repro.simulation import FileSharingSimulation


def _copying_replenish_downloads(self, tally):
    """The sweep as it was: a list copy of the pending map on every scan."""
    ctx = self.ctx
    config = ctx.config
    if self.workload is not None and len(self.pending) < config.max_pending:
        self.fill_pending()
    for download in list(self.pending.values()):
        if download.completed or download.unassigned_blocks <= 0:
            continue
        if download.active_sources > 0 or download.registered_at:
            download.lookup_failures = 0
            continue
        tally["starved"] += 1
        providers = ctx.lookup.find_providers(
            download.object.object_id, self.peer_id, self._rand
        )
        if not providers:
            ctx.metrics.count("lookup.retry_miss")
            download.lookup_failures += 1
            if download.lookup_failures >= ABANDON_AFTER_LOOKUP_FAILURES:
                tally["abandoned"] += 1
                self.abandon_download(download)
            continue
        download.lookup_failures = 0
        self._register_at_providers(download, providers)


def _drawing_next_request(self, tally):
    """The sampler as it was: always up to MAX_MISS_ATTEMPTS draws."""
    profile = self._profile
    rows = candidate_rows(self._catalog, profile, self._cache, self._object_factor)
    table = profile.cumulative
    rand = self._rand.random
    stored, pending, locatable = self._stored, self._pending, self._locatable
    for _ in range(MAX_MISS_ATTEMPTS):
        objects, ranks = rows[bisect_right(table, rand())]
        candidate = objects[bisect_left(ranks, rand())]
        object_id = candidate.object_id
        if object_id in stored or object_id in pending:
            continue
        if object_id not in locatable:
            continue
        return candidate
    requestable = any(
        obj.object_id not in stored
        and obj.object_id not in pending
        and obj.object_id in locatable
        for objects, _ranks in rows
        for obj in objects
    )
    tally["missed" if requestable else "exhausted"] += 1
    return None


def _config(world):
    churn = world["churn"]
    return SimulationConfig(
        num_peers=8,
        num_categories=world["num_categories"],
        objects_per_category_min=1,
        objects_per_category_max=world["objects_per_category_max"],
        categories_per_peer_min=1,
        categories_per_peer_max=2,
        object_size_mb=1.0,
        block_size_kbit=1024.0,
        storage_min_objects=1,
        storage_max_objects=world["storage_max_objects"],
        storage_check_interval=300.0,
        max_pending=world["max_pending"],
        request_fanout=2,
        churn_enabled=churn,
        churn_mean_online=600.0 if churn else 20_000.0,
        churn_mean_offline=300.0 if churn else 2_000.0,
        duration=3000.0,
        warmup=500.0,
        seed=world["seed"],
    )


def _outcome(config):
    """Everything a run's trajectory shows: events, summary, counters, streams."""
    sim = FileSharingSimulation(config)
    result = sim.run()
    rng = sim.ctx.rng
    streams = {name: rng.stream(name).getstate() for name in sorted(rng._streams)}
    return (
        result.events_fired,
        json.dumps(dataclasses.asdict(result.summary), sort_keys=True),
        result.perf_counters,
        streams,
    )


_WORLDS = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "num_categories": st.integers(2, 6),
        "objects_per_category_max": st.integers(2, 5),
        "storage_max_objects": st.integers(2, 4),
        "max_pending": st.integers(2, 4),
        "churn": st.booleans(),
    }
)


def test_sweep_and_sampler_match_the_originals():
    tally = Counter()

    @settings(max_examples=40, deadline=None)
    @given(world=_WORLDS)
    # Worlds where downloads starve and get abandoned and profiles run
    # dry, with and without churn; in the second, one call also misses
    # with a requestable object left (its draws never hit it).
    @example(world=dict(seed=3, num_categories=2, objects_per_category_max=3,
                        storage_max_objects=2, max_pending=2, churn=True))
    @example(world=dict(seed=28, num_categories=3, objects_per_category_max=4,
                        storage_max_objects=3, max_pending=3, churn=False))
    def same_trajectory(world):
        config = _config(world)
        with ExitStack() as patches:
            patches.enter_context(mock.patch.object(
                Peer, "_replenish_downloads",
                lambda self: _copying_replenish_downloads(self, tally),
            ))
            patches.enter_context(mock.patch.object(
                RequestGenerator, "next_request",
                lambda self: _drawing_next_request(self, tally),
            ))
            original = _outcome(config)
        assert _outcome(config) == original

    same_trajectory()
    assert tally["starved"] > 0
    assert tally["abandoned"] > 0
    assert tally["exhausted"] > 0
