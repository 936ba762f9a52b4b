"""A classic Bloom filter (Bloom, CACM 1970 — the paper's citation [23]).

Used by :mod:`repro.core.bloom_tree` to summarize the set of peers in a
request tree.  Double hashing (Kirsch-Mitzenmacher) derives the k index
functions from one SHA-256 digest, so membership is deterministic
across platforms and runs.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable

from repro.errors import ConfigError


def optimal_num_hashes(bits: int, expected_items: int) -> int:
    """The k minimizing the false-positive rate for m bits / n items."""
    if bits <= 0 or expected_items <= 0:
        raise ConfigError("bits and expected_items must be positive")
    k = int(round(bits / expected_items * math.log(2)))
    return max(1, k)


class BloomFilter:
    """Fixed-size bit array with k double-hashed index functions."""

    def __init__(self, bits: int, num_hashes: int, seed: int = 0) -> None:
        if bits <= 0:
            raise ConfigError(f"bloom filter needs positive bits, got {bits}")
        if num_hashes <= 0:
            raise ConfigError(f"bloom filter needs >= 1 hash, got {num_hashes}")
        self.bits = bits
        self.num_hashes = num_hashes
        self.seed = seed
        self._bitmap = 0
        self._items = 0

    # ------------------------------------------------------------------
    def _positions(self, item: int) -> Iterable[int]:
        digest = hashlib.sha256(f"{self.seed}:{item}".encode("utf-8")).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:16], "big") | 1  # odd => full period
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.bits

    def add(self, item: int) -> None:
        """Insert one item (sets its ``num_hashes`` bit positions)."""
        for position in self._positions(item):
            self._bitmap |= 1 << position
        self._items += 1

    def update(self, items: Iterable[int]) -> None:
        """Insert every item of the iterable."""
        for item in items:
            self.add(item)

    def __contains__(self, item: int) -> bool:
        for position in self._positions(item):
            if not (self._bitmap >> position) & 1:
                return False
        return True

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Wire size of the filter (bits rounded up to whole bytes)."""
        return (self.bits + 7) // 8

    def fill_ratio(self) -> float:
        """Fraction of bits set (the filter's saturation)."""
        return bin(self._bitmap).count("1") / self.bits

    def expected_false_positive_rate(self) -> float:
        """(1 - e^(-kn/m))^k, the standard estimate."""
        if self._items == 0:
            return 0.0
        exponent = -self.num_hashes * self._items / self.bits
        return (1.0 - math.exp(exponent)) ** self.num_hashes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilter(bits={self.bits}, k={self.num_hashes}, "
            f"items={self._items}, fill={self.fill_ratio():.2f})"
        )
