"""Unit tests for exchange policies and the mechanism parser."""

from __future__ import annotations

import pytest

from repro.core.policies import (
    ExchangePolicy,
    LongestFirstPolicy,
    NoExchangePolicy,
    PairwiseOnlyPolicy,
    ShortestFirstPolicy,
    parse_mechanism,
)
from repro.core.ring_search import RingCandidate
from repro.errors import ConfigError


def candidate(size: int, want: int = 0) -> RingCandidate:
    path = tuple((10 + i, 100 + i) for i in range(size - 1))
    return RingCandidate(want, path, entry=None)


class TestParser:
    @pytest.mark.parametrize("spec", ["none", "no-exchange", "NOEXCHANGE"])
    def test_none_forms(self, spec):
        assert isinstance(parse_mechanism(spec), NoExchangePolicy)

    @pytest.mark.parametrize("spec", ["pairwise", "2-way", "2-2-way", "PAIRWISE"])
    def test_pairwise_forms(self, spec):
        assert isinstance(parse_mechanism(spec), PairwiseOnlyPolicy)

    def test_shortest_first(self):
        policy = parse_mechanism("2-5-way")
        assert isinstance(policy, ShortestFirstPolicy)
        assert policy.max_ring == 5
        assert policy.name == "2-5-way"

    def test_longest_first(self):
        policy = parse_mechanism("5-2-way")
        assert isinstance(policy, LongestFirstPolicy)
        assert policy.max_ring == 5
        assert policy.name == "5-2-way"

    def test_ring_size_one_degenerates_to_no_exchange_behaviour(self):
        policy = parse_mechanism("1-2-way")
        assert policy.max_ring == 1
        assert not policy.enables_exchanges

    @pytest.mark.parametrize("spec", ["garbage", "3-4-way", "way", ""])
    def test_unknown_specs_rejected(self, spec):
        with pytest.raises(ConfigError):
            parse_mechanism(spec)


class TestOrdering:
    def test_no_exchange_orders_nothing(self):
        policy = NoExchangePolicy()
        assert policy.order([candidate(2), candidate(3)]) == []
        assert not policy.enables_exchanges

    def test_pairwise_filters_to_size_two(self):
        policy = PairwiseOnlyPolicy()
        ordered = policy.order([candidate(3), candidate(2), candidate(4)])
        assert [c.size for c in ordered] == [2]

    def test_shortest_first_order(self):
        policy = ShortestFirstPolicy(5)
        ordered = policy.order([candidate(4), candidate(2), candidate(3), candidate(5)])
        assert [c.size for c in ordered] == [2, 3, 4, 5]

    def test_longest_first_order(self):
        policy = LongestFirstPolicy(5)
        ordered = policy.order([candidate(4), candidate(2), candidate(3), candidate(5)])
        assert [c.size for c in ordered] == [5, 4, 3, 2]

    def test_oversized_candidates_filtered(self):
        policy = ShortestFirstPolicy(3)
        ordered = policy.order([candidate(2), candidate(4), candidate(5)])
        assert [c.size for c in ordered] == [2]

    def test_stable_order_for_ties(self):
        policy = ShortestFirstPolicy(5)
        first, second = candidate(3, want=1), candidate(3, want=2)
        ordered = policy.order([first, second])
        assert ordered == [first, second]

    def test_tree_levels(self):
        assert NoExchangePolicy().tree_levels == 0
        assert PairwiseOnlyPolicy().tree_levels == 1
        assert ShortestFirstPolicy(5).tree_levels == 4

    def test_order_admits_sizes_two_to_max_ring(self):
        policy = ShortestFirstPolicy(4)
        ordered = policy.order([candidate(size) for size in (1, 2, 4, 5)])
        assert [c.size for c in ordered] == [2, 4]

    def test_negative_max_ring_rejected(self):
        with pytest.raises(ConfigError):
            ExchangePolicy("bad", -1)
        with pytest.raises(ConfigError):
            ShortestFirstPolicy(1)
