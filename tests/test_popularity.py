"""Unit tests for the rank power-law popularity model."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.content.popularity import PopularityCache, RankPopularity
from repro.errors import ConfigError


def probabilities(dist):
    """Per-rank probabilities, read off the table the sampler bisects."""
    table = dist.cumulative
    return [high - low for low, high in zip([0.0] + table[:-1], table)]


class TestDistributionShape:
    def test_probabilities_sum_to_one(self):
        dist = RankPopularity(num_ranks=50, factor=0.2)
        assert sum(probabilities(dist)) == pytest.approx(1.0)

    def test_zero_factor_is_uniform(self):
        dist = RankPopularity(num_ranks=4, factor=0.0)
        assert probabilities(dist) == pytest.approx([0.25, 0.25, 0.25, 0.25])

    def test_factor_one_is_zipf(self):
        dist = RankPopularity(num_ranks=3, factor=1.0)
        h3 = 1.0 + 0.5 + 1.0 / 3.0
        assert probabilities(dist) == pytest.approx([1.0 / h3, 0.5 / h3, (1.0 / 3.0) / h3])

    def test_probabilities_decrease_with_rank(self):
        dist = RankPopularity(num_ranks=20, factor=0.7)
        probs = probabilities(dist)
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_higher_factor_more_concentrated(self):
        flat = RankPopularity(num_ranks=100, factor=0.1)
        steep = RankPopularity(num_ranks=100, factor=0.9)
        assert probabilities(steep)[0] > probabilities(flat)[0]

    def test_paper_formula(self):
        # p(r) = (1/r^f) / sum_i (1/i^f), the paper's exact expression.
        dist = RankPopularity(num_ranks=10, factor=0.2)
        norm = sum(1.0 / (i ** 0.2) for i in range(1, 11))
        assert probabilities(dist)[2] == pytest.approx((1.0 / 3 ** 0.2) / norm)

    @settings(max_examples=30)
    @given(
        n=st.integers(min_value=1, max_value=200),
        f=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    )
    def test_cumulative_is_nondecreasing_and_ends_at_one(self, n, f):
        table = RankPopularity(num_ranks=n, factor=f).cumulative
        assert len(table) == n
        assert all(a <= b for a, b in zip(table, table[1:]))
        assert table[-1] == 1.0

    def test_invalid_construction(self):
        with pytest.raises(ConfigError):
            RankPopularity(num_ranks=0, factor=0.2)
        with pytest.raises(ConfigError):
            RankPopularity(num_ranks=5, factor=-0.1)

    @pytest.mark.parametrize("factor", [math.nan, -math.inf])
    def test_rejects_factor_that_breaks_the_table(self, factor):
        # A NaN factor builds [nan, ..., nan, 1.0]: every draw lands on the last rank.
        with pytest.raises(ConfigError):
            RankPopularity(num_ranks=3, factor=factor)


class TestSampling:
    def test_sample_in_range(self):
        dist = RankPopularity(num_ranks=7, factor=0.5)
        rand = random.Random(1)
        for _ in range(200):
            assert 1 <= dist.sample_rank(rand) <= 7

    def test_sample_index_offset(self):
        dist = RankPopularity(num_ranks=1, factor=0.5)
        rand = random.Random(1)
        assert dist.sample_rank(rand) == 1
        assert dist.sample_index(rand) == 0

    def test_extreme_draws_map_to_first_and_last_rank(self):
        class Fixed:
            def __init__(self, point):
                self.point = point

            def random(self):
                return self.point

        dist = RankPopularity(num_ranks=5, factor=0.2)
        assert dist.sample_rank(Fixed(0.0)) == 1
        assert dist.sample_rank(Fixed(1.0 - 2**-53)) == 5
        assert dist.sample_rank(Fixed(1.0)) == 5

    def test_empirical_frequencies_match(self):
        dist = RankPopularity(num_ranks=3, factor=1.0)
        rand = random.Random(42)
        counts = [0, 0, 0]
        n = 30_000
        for _ in range(n):
            counts[dist.sample_rank(rand) - 1] += 1
        for count, probability in zip(counts, probabilities(dist)):
            assert count / n == pytest.approx(probability, abs=0.01)

    @settings(max_examples=30)
    @given(
        n=st.integers(min_value=1, max_value=200),
        f=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_sampling_always_valid(self, n, f, seed):
        dist = RankPopularity(num_ranks=n, factor=f)
        rand = random.Random(seed)
        rank = dist.sample_rank(rand)
        assert 1 <= rank <= n
        assert math.isclose(sum(probabilities(dist)), 1.0, rel_tol=1e-9)


class TestPopularityCache:
    def test_returns_same_instance(self):
        cache = PopularityCache()
        assert cache.get(10, 0.2) is cache.get(10, 0.2)

    def test_distinguishes_keys(self):
        cache = PopularityCache()
        assert cache.get(10, 0.2) is not cache.get(10, 0.3)
        assert cache.get(10, 0.2) is not cache.get(11, 0.2)
        assert len(cache._cache) == 3
