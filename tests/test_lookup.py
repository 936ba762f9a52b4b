"""Unit tests for the lookup oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LookupError_
from repro.network.lookup import LookupService

PEERS = range(3)
OBJECTS = range(3)
OPS = st.lists(
    st.tuples(
        st.sampled_from(["register", "unregister"]),
        st.sampled_from(PEERS),
        st.sampled_from(OBJECTS),
    ),
    max_size=40,
)


class TestIndexMaintenance:
    def test_register_and_providers(self):
        lookup = LookupService()
        lookup.register(1, 100)
        lookup.register(2, 100)
        assert lookup.provider_view(100) == {1, 2}
        assert len(lookup.provider_view(100)) == 2

    def test_unregister(self):
        lookup = LookupService()
        lookup.register(1, 100)
        lookup.unregister(1, 100)
        assert lookup.provider_view(100) == set()
        assert len(lookup.provider_index()) == 0

    def test_unregistering_the_last_provider_drops_the_key(self):
        # The request sampler tests locatability as key membership.
        lookup = LookupService()
        lookup.register(1, 100)
        lookup.register(2, 100)
        lookup.unregister(1, 100)
        assert 100 in lookup.provider_index()
        lookup.unregister(2, 100)
        assert 100 not in lookup.provider_index()

    def test_unregister_unknown_raises(self):
        lookup = LookupService()
        with pytest.raises(LookupError_):
            lookup.unregister(1, 100)

    def test_providers_unknown_object_empty(self):
        assert LookupService().provider_view(5) == set()

    @settings(max_examples=200, deadline=None)
    @given(ops=OPS)
    def test_every_provider_set_change_moves_its_version(self, ops):
        # The idle-search gate and the provider-mask cache key on these
        # counters: a change they miss would serve a stale answer.
        lookup = LookupService()
        for op, peer, obj in ops:
            views = {o: set(lookup.provider_view(o)) for o in OBJECTS}
            versions = {o: lookup.object_versions().get(o, 0) for o in OBJECTS}
            if op == "unregister" and peer not in views[obj]:
                with pytest.raises(LookupError_):
                    lookup.unregister(peer, obj)
            else:
                getattr(lookup, op)(peer, obj)
            for o in OBJECTS:
                if lookup.provider_view(o) != views[o]:
                    assert lookup.object_versions()[o] > versions[o]
            assert set(lookup.provider_index()) == {
                o for o in OBJECTS if lookup.provider_view(o)
            }


class TestFindProviders:
    def test_excludes_requester(self):
        lookup = LookupService()
        lookup.register(1, 100)
        lookup.register(2, 100)
        found = lookup.find_providers(100, requester_id=1, rand=random.Random(0))
        assert found == [2]

    def test_full_coverage_returns_all_shuffled(self):
        lookup = LookupService()
        for peer in range(10):
            lookup.register(peer, 100)
        found = lookup.find_providers(100, requester_id=99, rand=random.Random(0))
        assert sorted(found) == list(range(10))

    def test_no_providers_empty(self):
        lookup = LookupService()
        assert lookup.find_providers(100, 1, random.Random(0)) == []

    def test_deterministic_under_seed(self):
        lookup = LookupService()
        for peer in range(20):
            lookup.register(peer, 100)
        a = lookup.find_providers(100, 99, random.Random(7))
        b = lookup.find_providers(100, 99, random.Random(7))
        assert a == b
