"""Peer behaviour profiles.

The paper's population splits into *sharing* peers (serve their stored
objects, participate in exchanges) and *non-sharing* peers /
free-riders (consume only).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PeerBehavior:
    """What a peer is willing to do for the network.

    Attributes
    ----------
    name:
        Short label used in metrics and reprs.
    shares:
        Whether the peer serves its stored objects (appears in lookup,
        accepts requests, joins exchanges as a provider).
    """

    name: str
    shares: bool

    def __str__(self) -> str:
        return self.name


#: A cooperative peer: shares everything it stores.
SHARER = PeerBehavior(name="sharer", shares=True)

#: A free-rider: downloads but never serves (70% of Gnutella, per the
#: paper's motivation; 50% in the Table II base configuration).
FREELOADER = PeerBehavior(name="freeloader", shares=False)
