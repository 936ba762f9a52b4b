"""Exchange policies: which rings to look for, and in what order.

The paper evaluates four mechanisms:

* **no exchange** — the baseline scheduler, FIFO over the IRQ;
* **pairwise** — only 2-way exchanges;
* **N-2-way** (e.g. ``5-2-way``) — prefer *longer* rings, falling back
  to shorter ones ("aggressively seek out feasible longer exchange
  rings before resorting to shorter rings");
* **2-N-way** (e.g. ``2-5-way``) — prefer *shorter* rings, only looking
  for longer ones when no shorter ring is feasible.

A policy fixes the maximum ring size (which also bounds the request-tree
snapshot depth) and orders ring candidates for the commit loop.
"""

from __future__ import annotations

import re
from typing import List, Sequence

from repro.core.ring_search import RingCandidate
from repro.errors import ConfigError


class ExchangePolicy:
    """Base policy: knows its max ring size and orders candidates."""

    def __init__(self, name: str, max_ring: int) -> None:
        if max_ring < 0:
            raise ConfigError(f"max_ring must be >= 0, got {max_ring}")
        self.name = name
        self.max_ring = max_ring

    @property
    def enables_exchanges(self) -> bool:
        """Whether this policy forms rings at all (``max_ring >= 2``)."""
        return self.max_ring >= 2

    @property
    def tree_levels(self) -> int:
        """Levels of request tree attached to outgoing requests.

        A composite tree of ``max_ring`` levels needs snapshots of
        ``max_ring - 1`` levels (the recipient adds the root).
        """
        return max(0, self.max_ring - 1)

    def order(self, candidates: Sequence[RingCandidate]) -> List[RingCandidate]:
        """Admissible candidates in preference order; default: discovery order.

        A ring is admissible when ``2 <= size <= max_ring``.  Every
        ``order`` tests that inline, not through a method: the commit
        loop orders every candidate of every search pass, so a
        per-candidate call is measurable at 50k peers.
        """
        max_ring = self.max_ring
        return [c for c in candidates if 2 <= c.size <= max_ring]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, max_ring={self.max_ring})"


class NoExchangePolicy(ExchangePolicy):
    """The paper's "no exchange" baseline: plain FIFO service."""

    def __init__(self) -> None:
        super().__init__("none", 0)

    def order(self, candidates: Sequence[RingCandidate]) -> List[RingCandidate]:
        """No candidates are ever acceptable."""
        return []


class PairwiseOnlyPolicy(ExchangePolicy):
    """Only 2-way exchanges are sought."""

    def __init__(self) -> None:
        super().__init__("pairwise", 2)


class ShortestFirstPolicy(ExchangePolicy):
    """``2-N-way``: prefer shorter rings; longer only as a fallback."""

    def __init__(self, max_ring: int) -> None:
        if max_ring < 2:
            raise ConfigError(f"2-N-way needs max_ring >= 2, got {max_ring}")
        super().__init__(f"2-{max_ring}-way", max_ring)

    def order(self, candidates: Sequence[RingCandidate]) -> List[RingCandidate]:
        """Admissible candidates, shortest rings first (stable)."""
        max_ring = self.max_ring
        accepted = [c for c in candidates if 2 <= c.size <= max_ring]
        return sorted(accepted, key=lambda c: c.size)  # stable: keeps FIFO ties


class LongestFirstPolicy(ExchangePolicy):
    """``N-2-way``: aggressively prefer longer rings over shorter."""

    def __init__(self, max_ring: int) -> None:
        if max_ring < 1:
            raise ConfigError(f"N-2-way needs max_ring >= 1, got {max_ring}")
        super().__init__(f"{max_ring}-2-way", max_ring)

    def order(self, candidates: Sequence[RingCandidate]) -> List[RingCandidate]:
        """Admissible candidates, longest rings first (stable)."""
        max_ring = self.max_ring
        accepted = [c for c in candidates if 2 <= c.size <= max_ring]
        return sorted(accepted, key=lambda c: -c.size)


_N2WAY = re.compile(r"^(\d+)-2-way$")
_2NWAY = re.compile(r"^2-(\d+)-way$")


def parse_mechanism(spec: str) -> ExchangePolicy:
    """Build a policy from a mechanism string.

    Accepted forms: ``"none"``, ``"pairwise"``, ``"N-2-way"`` (longest
    first) and ``"2-N-way"`` (shortest first).  ``"2-2-way"`` is the
    same as ``"pairwise"``.
    """
    spec = spec.strip().lower()
    if spec in ("none", "no-exchange", "noexchange"):
        return NoExchangePolicy()
    if spec in ("pairwise", "2-way", "2-2-way"):
        return PairwiseOnlyPolicy()
    match = _2NWAY.match(spec)
    if match:
        return ShortestFirstPolicy(int(match.group(1)))
    match = _N2WAY.match(spec)
    if match:
        max_ring = int(match.group(1))
        if max_ring == 2:
            return PairwiseOnlyPolicy()
        return LongestFirstPolicy(max_ring)
    raise ConfigError(
        f"unknown exchange mechanism {spec!r}; expected 'none', 'pairwise', "
        "'N-2-way' or '2-N-way'"
    )
