"""eMule-style pairwise credit system (paper §II).

"For each request in the upload queue the peer computes the Queue Rank
based on a scoring function that depends on the current waiting time
for the request, as well as the upload and download volumes for the
peer."  The ledger is purely local (no communication), which is the
scheme's main advantage — and the waiting-time term is its main
weakness: "peers that do not have any credit can still use the system
if they are patient enough".

The modifier below follows eMule's documented rules: ratio =
2*uploaded/downloaded, alternatively sqrt(uploaded_MB + 2); the lower
of the two, clamped to [1, 10]; peers that uploaded less than 1 MB get
modifier 1.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.errors import ProtocolError
from repro.units import KBIT_PER_MB


def credit_modifier(uploaded_kbit: float, downloaded_kbit: float) -> float:
    """eMule credit modifier for one remote peer.

    ``uploaded_kbit``: data the remote peer sent *to us*;
    ``downloaded_kbit``: data the remote peer took *from us*.
    """
    if uploaded_kbit < 0 or downloaded_kbit < 0:
        raise ProtocolError("credit volumes cannot be negative")
    uploaded_mb = uploaded_kbit / KBIT_PER_MB
    if uploaded_mb < 1.0:
        return 1.0
    if downloaded_kbit <= 0:
        ratio = 10.0
    else:
        ratio = 2.0 * uploaded_kbit / downloaded_kbit
    alternative = math.sqrt(uploaded_mb + 2.0)
    modifier = min(ratio, alternative)
    return max(1.0, min(10.0, modifier))


def credit_queue_rank(waiting_seconds: float, modifier: float) -> float:
    """eMule queue rank: waiting time scaled by the credit modifier."""
    if waiting_seconds < 0:
        raise ProtocolError(f"waiting time cannot be negative: {waiting_seconds}")
    return waiting_seconds * modifier


class CreditLedger:
    """One peer's local per-remote upload/download volume bookkeeping."""

    __slots__ = ("owner_id", "_volumes")

    def __init__(self, owner_id: int) -> None:
        self.owner_id = owner_id
        # remote -> (they_uploaded_to_me, they_downloaded_from_me), kbit
        self._volumes: Dict[int, Tuple[float, float]] = {}

    def record_received(self, remote_id: int, kbit: float) -> None:
        """The remote peer uploaded ``kbit`` to us."""
        up, down = self._volumes.get(remote_id, (0.0, 0.0))
        self._volumes[remote_id] = (up + kbit, down)

    def record_served(self, remote_id: int, kbit: float) -> None:
        """The remote peer downloaded ``kbit`` from us."""
        up, down = self._volumes.get(remote_id, (0.0, 0.0))
        self._volumes[remote_id] = (up, down + kbit)

    def volumes(self, remote_id: int) -> Tuple[float, float]:
        """``(they_uploaded_to_me, they_downloaded_from_me)`` in kbit."""
        return self._volumes.get(remote_id, (0.0, 0.0))

    def modifier(self, remote_id: int) -> float:
        """The eMule credit modifier for one remote peer."""
        uploaded, downloaded = self.volumes(remote_id)
        return credit_modifier(uploaded, downloaded)

    def rank(self, remote_id: int, waiting_seconds: float) -> float:
        """Queue rank of a request from ``remote_id`` (higher = served first)."""
        return credit_queue_rank(waiting_seconds, self.modifier(remote_id))
