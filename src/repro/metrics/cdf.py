"""Empirical cumulative distribution functions.

The paper's Figs. 7 and 8 plot CDFs per traffic class.  This module
keeps the implementation dependency-free (no numpy required at runtime)
and exact: F(x) = fraction of samples <= x.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, List, Tuple

from repro.errors import MetricsError


class EmpiricalCDF:
    """Exact empirical CDF over a finite sample."""

    def __init__(self, samples: Iterable[float]) -> None:
        self._sorted: List[float] = sorted(samples)
        if not self._sorted:
            raise MetricsError("cannot build a CDF from zero samples")
        self._n = len(self._sorted)

    @property
    def n(self) -> int:
        """Number of samples the CDF was built from."""
        return self._n

    @property
    def min(self) -> float:
        """Smallest sample value."""
        return self._sorted[0]

    @property
    def max(self) -> float:
        """Largest sample value."""
        return self._sorted[-1]

    def __call__(self, x: float) -> float:
        """F(x) = P[X <= x]."""
        return bisect.bisect_right(self._sorted, x) / self._n

    def quantile(self, q: float) -> float:
        """Smallest sample value v with F(v) >= q, for q in (0, 1]."""
        if not 0.0 < q <= 1.0:
            raise MetricsError(f"quantile must be in (0, 1], got {q}")
        rank = math.ceil(q * self._n)  # the rank-th order statistic
        index = min(self._n - 1, max(0, rank - 1))
        return self._sorted[index]

    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        return sum(self._sorted) / self._n

    def points(self, max_points: int = 200) -> List[Tuple[float, float]]:
        """(x, F(x)) pairs subsampled to at most ``max_points`` for plotting."""
        if max_points < 2:
            raise MetricsError(f"max_points must be >= 2, got {max_points}")
        step = max(1, self._n // max_points)
        pts: List[Tuple[float, float]] = []
        for i in range(0, self._n, step):
            pts.append((self._sorted[i], (i + 1) / self._n))
        last = (self._sorted[-1], 1.0)
        if pts[-1] != last:
            pts.append(last)
        return pts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EmpiricalCDF(n={self._n}, range=[{self.min:.3g}, {self.max:.3g}])"
