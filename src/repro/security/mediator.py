"""Trusted-mediator encrypted exchange (paper §III-B).

Against freeriding middlemen the paper proposes: encrypt both directions
of the exchange with per-sender secret keys known only to the sender and
a trusted mediator; include an (encrypted) *peer-of-origin* identifier
in each block's control header; after verifying sample blocks, the
mediator releases each key **to the peer named in the control header**
— so a middleman relaying ciphertext between two real traders never
obtains the keys and "his participation in the transfer would offer him
no benefit".

Keys and ciphers are abstract: an :class:`EncryptedBlock` is readable by
a peer iff that peer holds the sender's session key.  The incentive
analysis only needs that reachability relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.errors import ProtocolError


@dataclass(frozen=True)
class EncryptedBlock:
    """One block ciphered with the sender's session key.

    ``origin_id`` is the control-header peer-of-origin: the identity the
    *sender* stamped (and the mediator trusts, since the header is
    encrypted too).  ``carried_by`` tracks the path for diagnostics.
    """

    sender_id: int
    origin_id: int
    object_id: int
    index: int
    valid: bool = True
    carried_by: Tuple[int, ...] = ()


@dataclass
class _SessionSide:
    sender_id: int
    receiver_claimed: int
    blocks: List[EncryptedBlock] = field(default_factory=list)


class Mediator:
    """The trusted third party holding session keys until verification."""

    def __init__(self, sample_size: int = 2) -> None:
        if sample_size < 1:
            raise ProtocolError(f"sample size must be >= 1, got {sample_size}")
        self.sample_size = sample_size
        self._sessions: Dict[int, Tuple[_SessionSide, _SessionSide]] = {}
        self._next_session = 0
        #: peer -> set of sender ids whose key the peer received.
        self.keys_released: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    def open_session(self, side_a: Tuple[int, int], side_b: Tuple[int, int]) -> int:
        """Register an exchange; each side is (sender, claimed receiver)."""
        session_id = self._next_session
        self._next_session += 1
        self._sessions[session_id] = (
            _SessionSide(*side_a),
            _SessionSide(*side_b),
        )
        return session_id

    def record_block(self, session_id: int, block: EncryptedBlock) -> None:
        """Buffer one encrypted block on its sender's side of the session."""
        session = self._sessions.get(session_id)
        if session is None:
            raise ProtocolError(f"unknown session {session_id}")
        for side in session:
            if side.sender_id == block.sender_id:
                side.blocks.append(block)
                return
        raise ProtocolError(
            f"block from peer {block.sender_id} does not belong to session {session_id}"
        )

    def complete_exchange(self, session_id: int) -> Dict[int, Set[int]]:
        """Verify samples and release keys to the control-header origins.

        Returns ``{peer_id: {sender keys received}}`` for this session.
        A side whose sampled blocks are junk gets nothing released to it
        (neither side's key reaches a cheater's partner-view).
        """
        session = self._sessions.get(session_id)
        if session is None:
            raise ProtocolError(f"unknown session {session_id}")
        side_a, side_b = session
        released: Dict[int, Set[int]] = {}
        for side, other in ((side_a, side_b), (side_b, side_a)):
            if not side.blocks or not other.blocks:
                # No reciprocal stream: nothing was exchanged, so no key
                # leaves the mediator (this is what starves a middleman
                # who only relays one direction of a fabricated session).
                continue
            sample = side.blocks[: self.sample_size]
            if any(not block.valid for block in sample):
                continue  # this sender cheated: withhold its key entirely
            # The key to decrypt `side.sender`'s data goes to the peers
            # that the OTHER side's control headers name as origin — the
            # true trading counterparties, never a relaying middleman
            # (headers are encrypted, so a relay cannot rewrite them).
            recipients = {block.origin_id for block in other.blocks}
            for recipient in recipients:
                released.setdefault(recipient, set()).add(side.sender_id)
        for recipient, keys in released.items():
            self.keys_released.setdefault(recipient, set()).update(keys)
        return released

    def keys_for(self, peer_id: int) -> Set[int]:
        """The sender ids whose keys ``peer_id`` holds, as a *copy*.

        The internal release table is live mutable state; handing the
        set itself out would let a caller mint decryption rights by
        mutating it.
        """
        return set(self.keys_released.get(peer_id, set()))

    def can_decrypt(self, peer_id: int, block: EncryptedBlock) -> bool:
        """Whether ``peer_id`` holds the key for this block's sender."""
        return block.sender_id in self.keys_released.get(peer_id, set())


class MediatedExchange:
    """Convenience driver: run one two-sided exchange to key release."""

    def __init__(self, mediator: Mediator, peer_a: int, peer_b: int) -> None:
        self.mediator = mediator
        self.peer_a = peer_a
        self.peer_b = peer_b
        self.session_id = mediator.open_session((peer_a, peer_b), (peer_b, peer_a))

    def transfer(self, sender_id: int, origin_id: int, object_id: int,
                 blocks: int, valid: bool = True) -> List[EncryptedBlock]:
        """Send ``blocks`` encrypted blocks from one side through the mediator."""
        sent = []
        for index in range(blocks):
            block = EncryptedBlock(
                sender_id=sender_id,
                origin_id=origin_id,
                object_id=object_id,
                index=index,
                valid=valid,
            )
            self.mediator.record_block(self.session_id, block)
            sent.append(block)
        return sent

    def settle(self) -> Dict[int, Set[int]]:
        """Complete the exchange: both sides' keys are released atomically."""
        return self.mediator.complete_exchange(self.session_id)
