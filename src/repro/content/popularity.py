"""Rank-based power-law popularity (the paper's factor *f* model).

The probability of rank ``r`` among ``n`` ranks is::

    p(r) = (1 / r**f) / sum_{i=1..n} (1 / i**f)

With ``f = 0`` the distribution is uniform; with ``f = 1`` it is
zipf-like.  The paper uses the same family for category popularity and
for object popularity within a category (both with f = 0.2 by default).

Sampling uses a precomputed cumulative table and binary search, because
workload generation draws from these distributions millions of times per
run.
"""

from __future__ import annotations

import bisect
import random
from typing import List

from repro.errors import ConfigError


class RankPopularity:
    """Power-law distribution over ranks ``1..n`` with skew factor ``f``."""

    def __init__(self, num_ranks: int, factor: float) -> None:
        if num_ranks <= 0:
            raise ConfigError(f"num_ranks must be positive, got {num_ranks}")
        if not factor >= 0:  # NaN too: it would build [nan, ..., nan, 1.0]
            raise ConfigError(f"popularity factor must be >= 0, got {factor}")
        self.num_ranks = num_ranks
        self.factor = factor
        weights = [1.0 / (rank ** factor) for rank in range(1, num_ranks + 1)]
        # Left folds in rank order, never builtin sum(): from CPython 3.12
        # sum() compensates float sums, and the table would differ by
        # interpreter (lint rule NUM001).
        total = 0.0
        for w in weights:
            total += w
        self._cumulative: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cumulative.append(acc)
        # Guard against floating point drift so bisect never falls off the end.
        self._cumulative[-1] = 1.0

    @property
    def cumulative(self) -> List[float]:
        """The cumulative table itself — read-only by convention, no copy.

        Entry ``i`` is P(rank <= i + 1): finite, nondecreasing and ending
        at exactly 1.0, so ``bisect_left(cumulative, rand.random())`` is
        :meth:`sample_index`.  The request sampler bisects it directly.
        """
        return self._cumulative

    def sample_rank(self, rand: random.Random) -> int:
        """Draw a rank in ``1..n`` from the distribution."""
        point = rand.random()
        index = bisect.bisect_left(self._cumulative, point)
        if index >= self.num_ranks:  # point == 1.0 edge case
            index = self.num_ranks - 1
        return index + 1

    def sample_index(self, rand: random.Random) -> int:
        """Draw a 0-based index (``rank - 1``), handy for list lookups."""
        return self.sample_rank(rand) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankPopularity(n={self.num_ranks}, f={self.factor})"


class PopularityCache:
    """Memoized :class:`RankPopularity` instances keyed by ``(n, f)``.

    Categories frequently share the same object count, and every request
    draw needs the category's object distribution; caching avoids
    rebuilding cumulative tables in the hot path.
    """

    def __init__(self) -> None:
        self._cache: dict = {}

    def get(self, num_ranks: int, factor: float) -> RankPopularity:
        """The (cached) rank distribution for ``(num_ranks, factor)``."""
        key = (num_ranks, factor)
        dist = self._cache.get(key)
        if dist is None:
            dist = RankPopularity(num_ranks, factor)
            self._cache[key] = dist
        return dist
