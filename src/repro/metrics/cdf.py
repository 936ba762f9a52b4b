"""Empirical cumulative distribution functions.

The paper's Figs. 7 and 8 plot CDFs per traffic class.  This module
keeps the implementation dependency-free (no numpy required at runtime)
and exact: F(x) = fraction of samples <= x.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List

from repro.errors import MetricsError


class EmpiricalCDF:
    """Exact empirical CDF over a finite sample."""

    def __init__(self, samples: Iterable[float]) -> None:
        self._sorted: List[float] = sorted(samples)
        if not self._sorted:
            raise MetricsError("cannot build a CDF from zero samples")
        self._n = len(self._sorted)

    def __call__(self, x: float) -> float:
        """F(x) = P[X <= x]."""
        return bisect.bisect_right(self._sorted, x) / self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EmpiricalCDF(n={self._n}, "
            f"range=[{self._sorted[0]:.3g}, {self._sorted[-1]:.3g}])"
        )
