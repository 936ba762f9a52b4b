"""Deterministic random-stream management.

Simulations need *independent* random streams per concern (topology,
workload, storage eviction, ...) so that changing how many numbers one
subsystem draws does not perturb every other subsystem — otherwise a
sweep over, say, upload capacity would also silently re-randomize peer
interests and the curves would be noise, not signal.

:class:`RandomSource` wraps the root seed and hands out named
sub-streams derived with a stable hash, so ``RandomSource(7).stream("x")``
is the same sequence on every platform and Python version (we avoid
``hash()`` which is salted per-process).  It offers no draws of its
own: every draw goes through ``stream(name)``, so each call site names
the stream it consumes and ``stream()`` without a name is a
``TypeError``.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def _derive_seed(root_seed: int, name: str) -> int:
    """Stable 64-bit seed derived from a root seed and a stream name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomSource:
    """A root seed plus a registry of named, independent sub-streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the sub-stream called ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(_derive_seed(self.seed, name))
            self._streams[name] = stream
        return stream

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomSource(seed={self.seed}, streams={sorted(self._streams)})"
