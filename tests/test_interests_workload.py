"""Unit tests for interest profiles and the request workload."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.content.catalog import Catalog, Category, ContentObject
from repro.content.interests import InterestProfile, build_interest_profile
from repro.content.placement import _MAX_ATTEMPTS_PER_SLOT, place_objects_for_peer
from repro.content.popularity import PopularityCache, RankPopularity
from repro.content.storage import ObjectStore
from repro.content.workload import MAX_MISS_ATTEMPTS, RequestGenerator
from repro.errors import ConfigError
from repro.network.lookup import LookupService

from tests.helpers import tiny_catalog


class TestInterestProfile:
    def test_weights_normalized(self):
        profile = InterestProfile([0, 1], [3.0, 1.0])
        assert profile.weights == pytest.approx((0.75, 0.25))

    def test_choose_category_respects_weights(self):
        profile = InterestProfile([5, 9], [1.0, 0.0])
        rand = random.Random(0)
        assert {profile.choose_category(rand) for _ in range(50)} == {5}

    def test_contains(self):
        profile = InterestProfile([2, 4], [1.0, 1.0])
        assert 2 in profile
        assert 3 not in profile

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            InterestProfile([], [])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ConfigError):
            InterestProfile([1, 2], [1.0])

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigError):
            InterestProfile([1, 1], [1.0, 1.0])

    def test_rejects_zero_total_weight(self):
        with pytest.raises(ConfigError):
            InterestProfile([1, 2], [0.0, 0.0])

    @pytest.mark.parametrize(
        "weights",
        [[1.0, -0.5, 1.0], [math.nan, 1.0], [math.inf, 1.0], [1.0, -math.inf]],
        ids=["negative", "nan", "inf", "minus-inf"],
    )
    def test_rejects_weights_that_break_the_table(self, weights):
        with pytest.raises(ConfigError):
            InterestProfile(list(range(len(weights))), weights)

    @pytest.mark.parametrize("boost", [math.nan, math.inf, 0.0, -1.0])
    def test_with_category_rejects_bad_boost(self, boost):
        with pytest.raises(ConfigError, match="boost"):
            InterestProfile([0, 1], [1.0, 1.0]).with_category(2, boost=boost)


class TestBuildInterestProfile:
    def test_builds_requested_count(self):
        catalog = tiny_catalog(num_categories=10)
        popularity = RankPopularity(10, 0.2)
        profile = build_interest_profile(catalog, popularity, random.Random(1), 4)
        assert len(profile.category_ids) == 4
        assert len(set(profile.category_ids)) == 4

    def test_caps_at_catalog_size(self):
        catalog = tiny_catalog(num_categories=3)
        popularity = RankPopularity(3, 0.2)
        profile = build_interest_profile(catalog, popularity, random.Random(1), 99)
        assert sorted(profile.category_ids) == [0, 1, 2]

    def test_popular_categories_chosen_more_often(self):
        catalog = tiny_catalog(num_categories=20)
        popularity = RankPopularity(20, 1.0)  # strongly skewed
        rand = random.Random(7)
        first_counts = 0
        trials = 300
        for _ in range(trials):
            profile = build_interest_profile(catalog, popularity, rand, 1)
            if profile.category_ids[0] == 0:  # rank-1 category
                first_counts += 1
        # Rank-1 probability under zipf-20 is ~0.28; uniform would be 0.05.
        assert first_counts / trials > 0.15

    def test_rejects_non_positive_count(self):
        catalog = tiny_catalog()
        popularity = RankPopularity(3, 0.2)
        with pytest.raises(ConfigError):
            build_interest_profile(catalog, popularity, random.Random(1), 0)


class TestRequestGenerator:
    def _generator(
        self, known=frozenset(), locatable=frozenset(range(12)), factor=0.2, seed=3
    ):
        catalog = tiny_catalog(num_categories=3, objects_per_category=4)
        profile = InterestProfile([0, 1, 2], [1.0, 1.0, 1.0])
        return RequestGenerator(
            catalog,
            profile,
            random.Random(seed),
            factor,
            stored=known,
            pending={},
            locatable=locatable,
            popularity_cache=PopularityCache(),
        )

    def test_draws_objects_from_interest_categories(self):
        generator = self._generator()
        for _ in range(20):
            obj = generator.next_request()
            assert obj.category_id in (0, 1, 2)

    def test_skips_known_objects(self):
        # Objects 0..7 known; only category 2 (ids 8..11) remains.
        generator = self._generator(known=frozenset(range(8)))
        for _ in range(10):
            obj = generator.next_request()
            assert obj is not None
            assert obj.object_id >= 8

    def test_skips_unlocatable_objects(self):
        generator = self._generator(locatable={5})
        obj = generator.next_request()
        assert obj is not None and obj.object_id == 5

    def test_returns_none_when_everything_known(self):
        generator = self._generator(known=frozenset(range(12)))
        assert generator.next_request() is None

    def test_returns_none_when_nothing_locatable(self):
        generator = self._generator(locatable=set())
        assert generator.next_request() is None

    def test_rejects_negative_factor(self):
        with pytest.raises(ConfigError):
            self._generator(factor=-1.0)

    def test_rejects_nan_factor(self):
        with pytest.raises(ConfigError):
            self._generator(factor=math.nan)

    @settings(max_examples=25)
    @given(known=st.sets(st.integers(min_value=0, max_value=11), max_size=11))
    def test_next_request_never_returns_known(self, known):
        generator = self._generator(known=frozenset(known))
        obj = generator.next_request()
        if obj is not None:
            assert obj.object_id not in known


class _CountingRandom(random.Random):
    """A Mersenne-Twister stream that counts its ``random()`` calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.random_calls = 0

    def random(self):
        self.random_calls += 1
        return super().random()


def _state_after_random_calls(seed, calls):
    rand = random.Random(seed)
    for _ in range(calls):
        rand.random()
    return rand.getstate()


class TestExhaustedProfile:
    """A call with nothing requestable skips its draws, not their stream."""

    @pytest.mark.parametrize("k", [1, 2, 199, 200])
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 12345678901234567890])
    def test_getrandbits_consumes_what_random_calls_consume(self, seed, k):
        rand = random.Random(seed)
        rand.getrandbits(128 * k)
        assert rand.getstate() == _state_after_random_calls(seed, 2 * k)

    @pytest.mark.parametrize(
        "known, pending, locatable",
        [
            (frozenset(range(12)), {}, frozenset(range(12))),  # all stored
            (frozenset(), {}, frozenset()),  # nothing locatable
            (frozenset(range(6)), dict.fromkeys(range(6, 9)), frozenset(range(9))),
        ],
        ids=["stored", "unlocatable", "mixed"],
    )
    def test_exhausted_call_draws_nothing_and_advances_the_stream(
        self, known, pending, locatable
    ):
        catalog = tiny_catalog(num_categories=3, objects_per_category=4)
        rand = _CountingRandom(7)
        generator = RequestGenerator(
            catalog,
            InterestProfile([0, 1, 2], [1.0, 1.0, 1.0]),
            rand,
            0.2,
            stored=known,
            pending=pending,
            locatable=locatable,
            popularity_cache=PopularityCache(),
        )
        assert generator.next_request() is None
        assert rand.random_calls == 0
        assert rand.getstate() == _state_after_random_calls(7, 2 * MAX_MISS_ATTEMPTS)

    def test_zero_weight_category_counts_as_requestable(self):
        # The rows include categories no draw can reach, so a requestable
        # object there keeps the draws (which then all miss).
        catalog = tiny_catalog(num_categories=2, objects_per_category=4)
        rand = _CountingRandom(7)
        generator = RequestGenerator(
            catalog,
            InterestProfile([0, 1], [1.0, 0.0]),
            rand,
            0.2,
            stored=frozenset(range(4)),
            pending={},
            locatable=frozenset(range(8)),
            popularity_cache=PopularityCache(),
        )
        assert generator.next_request() is None
        assert rand.random_calls == 2 * MAX_MISS_ATTEMPTS
        assert rand.getstate() == _state_after_random_calls(7, 2 * MAX_MISS_ATTEMPTS)


# ----------------------------------------------------------------------
# The sampler against the call chain it replaces
# ----------------------------------------------------------------------


def _catalog(sizes):
    """A catalog with one category per entry of ``sizes``, ids dense."""
    categories = []
    next_id = 0
    for cid, size in enumerate(sizes):
        objects = tuple(
            ContentObject(next_id + r, cid, r + 1, 4096.0) for r in range(size)
        )
        next_id += size
        categories.append(Category(cid, cid + 1, objects))
    return Catalog(categories)


def _draw_profile(data, num_categories):
    """A profile over some of the categories, zero weights included."""
    ids = data.draw(st.permutations(range(num_categories)))
    count = data.draw(st.integers(1, num_categories))
    weights = data.draw(
        st.lists(
            st.sampled_from([0.0, 0.0, 0.3, 1.0, 2.5]), min_size=count, max_size=count
        ).filter(lambda ws: sum(ws) > 0)
    )
    return InterestProfile(ids[:count], weights)


class _ChainGenerator:
    """Reference request draw: the call chain ``choose_category`` →
    ``catalog.category`` → ``PopularityCache.get`` → ``sample_index``,
    then the known and locatable checks, one candidate at a time."""

    def __init__(self, catalog, profile, rand, factor, store, pending, lookup):
        self.catalog = catalog
        self.profile = profile
        self.rand = rand
        self.factor = factor
        self.store = store
        self.pending = pending
        self.lookup = lookup
        self.cache = PopularityCache()

    def next_request(self):
        for _ in range(MAX_MISS_ATTEMPTS):
            category = self.catalog.category(self.profile.choose_category(self.rand))
            distribution = self.cache.get(category.size, self.factor)
            candidate = category.objects[distribution.sample_index(self.rand)]
            object_id = candidate.object_id
            if object_id in self.store or object_id in self.pending:
                continue
            if len(self.lookup.provider_view(object_id)) == 0:
                continue
            return candidate
        return None


def _generator(catalog, profile, rand, factor, store, pending, lookup):
    """The generator under test, reading the same live state as the reference."""
    return RequestGenerator(
        catalog,
        profile,
        rand,
        factor,
        stored=store.id_view(),
        pending=pending,
        locatable=lookup.provider_index(),
        popularity_cache=PopularityCache(),
    )


def _everything_located(catalog):
    """A lookup in which one provider holds every object of ``catalog``."""
    lookup = LookupService()
    for object_id in range(catalog.num_objects):
        lookup.register(0, object_id)
    return lookup


class _ScriptedRandom:
    """A ``random()`` that returns a fixed script of values."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


class TestSamplerMatchesCallChain:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_next_request_matches_the_call_chain(self, data):
        sizes = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
        catalog = _catalog(sizes)
        profile = _draw_profile(data, len(sizes))
        factor = data.draw(st.sampled_from([0.0, 0.2, 1.0, 3.0]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        store = ObjectStore(capacity=64)
        pending = {}
        # Every object locatable, or some of them.
        lookup = _everything_located(catalog) if data.draw(st.booleans()) else LookupService()
        ours_rand, reference_rand = random.Random(seed), random.Random(seed)
        ours = _generator(catalog, profile, ours_rand, factor, store, pending, lookup)
        reference = _ChainGenerator(
            catalog, profile, reference_rand, factor, store, pending, lookup
        )
        object_ids = st.integers(0, catalog.num_objects - 1)
        for oid in data.draw(st.sets(object_ids)):
            store.add(oid)
        for oid in data.draw(st.sets(object_ids)):
            pending[oid] = None
        for oid in data.draw(st.sets(object_ids)):
            lookup.register(0, oid)
        steps = data.draw(
            st.lists(
                st.sampled_from(
                    ["call", "call", "call", "store", "pending", "provider",
                     "inject", "profile"]
                ),
                min_size=1,
                max_size=25,
            )
        )
        for step in steps + ["call"]:
            if step == "store":
                object_id = data.draw(st.integers(0, catalog.num_objects - 1))
                if object_id in store:
                    store.remove(object_id)
                else:
                    store.add(object_id)
            elif step == "pending":
                object_id = data.draw(st.integers(0, catalog.num_objects - 1))
                if object_id in pending:
                    del pending[object_id]
                else:
                    pending[object_id] = None
            elif step == "provider":
                peer = data.draw(st.integers(0, 2))
                object_id = data.draw(st.integers(0, catalog.num_objects - 1))
                if peer in lookup.provider_view(object_id):
                    lookup.unregister(peer, object_id)
                else:
                    lookup.register(peer, object_id)
                # The sampler's locatable test is key membership.
                assert all(lookup.provider_index().values())
            elif step == "inject":
                catalog.inject_object(
                    data.draw(st.integers(0, len(sizes) - 1)),
                    4096.0,
                    position=data.draw(st.integers(0, 6)),
                )
            elif step == "profile":
                profile = _draw_profile(data, len(sizes))
                ours.set_profile(profile)
                reference.profile = profile
            else:
                got = ours.next_request()
                want = reference.next_request()
                assert got is want
                assert ours_rand.getstate() == reference_rand.getstate()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_placement_matches_the_call_chain(self, data):
        sizes = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
        catalog = _catalog(sizes)
        profile = _draw_profile(data, len(sizes))
        factor = data.draw(st.sampled_from([0.0, 0.2, 1.0, 3.0]))
        capacity = data.draw(st.integers(1, 12))
        prefilled = data.draw(st.sets(st.integers(0, catalog.num_objects - 1)))
        seed = data.draw(st.integers(0, 2**32 - 1))
        stores = (ObjectStore(capacity), ObjectStore(capacity))
        for store in stores:
            for object_id in prefilled:
                store.add(object_id)
        ours_rand, reference_rand = random.Random(seed), random.Random(seed)
        placed = place_objects_for_peer(
            catalog, profile, stores[0], ours_rand, factor, PopularityCache()
        )
        # The reference: the same placement loop through the call chain,
        # filling the store to capacity.
        cache = PopularityCache()
        budget = capacity * _MAX_ATTEMPTS_PER_SLOT
        expected = []
        attempts = 0
        while len(stores[1]) < capacity and attempts < budget:
            attempts += 1
            category = catalog.category(profile.choose_category(reference_rand))
            distribution = cache.get(category.size, factor)
            candidate = category.objects[distribution.sample_index(reference_rand)]
            if stores[1].add_if_absent(candidate.object_id):
                expected.append(candidate.object_id)
        assert placed == expected
        assert stores[0].object_ids() == stores[1].object_ids()
        assert ours_rand.getstate() == reference_rand.getstate()

    def test_exact_table_boundaries_match_the_call_chain(self):
        # Random floats almost never land on a table entry, the one place
        # where bisect_left and bisect_right disagree: script them there.
        catalog = _catalog([1, 3, 4, 2])
        profile = InterestProfile([3, 0, 2, 1], [0.0, 1.0, 0.0, 3.0])
        factor = 1.0
        cache = PopularityCache()
        tables = [cache.get(size, factor).cumulative for size in (1, 2, 3, 4)]
        category_points = sorted({0.0} | {c for c in profile.cumulative if c < 1.0})
        object_points = sorted({0.0} | {c for t in tables for c in t if c < 1.0})
        assert 0.0 in profile.cumulative  # a zero-weight category leads
        lookup = _everything_located(catalog)  # the first candidate is taken
        for category_point in category_points:
            for object_point in object_points:
                script = [category_point, object_point]
                ours = _generator(
                    catalog, profile, _ScriptedRandom(script), factor,
                    ObjectStore(1), {}, lookup,
                )
                reference = _ChainGenerator(
                    catalog, profile, _ScriptedRandom(script), factor,
                    ObjectStore(1), {}, lookup,
                )
                assert ours.next_request() is reference.next_request()
