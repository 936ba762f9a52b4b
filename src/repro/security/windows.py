"""Windowed synchronous exchange (paper §III-B).

With fully synchronous one-block-at-a-time validation, the exchange
rate is capped at ``block_size / rtt`` — possibly below the slot
capacity — so the paper suggests a window protocol: "start the exchange
with a small window and increase after a number of rounds", trading
throughput against risk (a cheater's maximum haul equals the current
window).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ProtocolError
from repro.security.checksums import Block, BlockValidator


def max_exchange_rate(block_kbit: float, rtt_seconds: float, window: int = 1) -> float:
    """Achievable exchange rate in kbit/s for a given window.

    The paper's bound with window 1: ``S_block / T_rtt``; a window of w
    in-flight blocks scales it w-fold (until the slot rate caps it —
    the caller compares against the slot capacity).
    """
    if block_kbit <= 0:
        raise ProtocolError(f"block size must be positive, got {block_kbit}")
    if rtt_seconds <= 0:
        raise ProtocolError(f"rtt must be positive, got {rtt_seconds}")
    if window < 1:
        raise ProtocolError(f"window must be >= 1, got {window}")
    return window * block_kbit / rtt_seconds


def window_for_rate(
    block_kbit: float, rtt_seconds: float, target_rate_kbit: float
) -> int:
    """Smallest window that fills ``target_rate_kbit`` (e.g. slot rate)."""
    if target_rate_kbit <= 0:
        raise ProtocolError(f"target rate must be positive, got {target_rate_kbit}")
    per_window = max_exchange_rate(block_kbit, rtt_seconds, window=1)
    window = 1
    while window * per_window < target_rate_kbit:
        window *= 2
    return window


@dataclass
class RoundResult:
    """Outcome of one windowed exchange round."""

    round_index: int
    window: int
    blocks_sent: int
    junk_received: int
    aborted: bool


class WindowedExchange:
    """One side of a windowed exchange against a possibly-cheating peer.

    Starts at ``initial_window`` and doubles after every fully-valid
    round up to ``max_window``.  Junk in a round aborts the exchange;
    the cheater's haul is whatever we sent in that round (== window).
    """

    def __init__(
        self,
        validator: BlockValidator,
        initial_window: int = 1,
        max_window: int = 8,
    ) -> None:
        if initial_window < 1 or max_window < initial_window:
            raise ProtocolError(
                f"bad window bounds [{initial_window}, {max_window}]"
            )
        self._validator = validator
        self.window = initial_window
        self.max_window = max_window
        self.rounds: List[RoundResult] = []
        self.blocks_lost_to_cheater = 0
        self.aborted = False

    def run_round(self, received: List[Block]) -> RoundResult:
        """Validate one round's incoming blocks; grow or abort."""
        if self.aborted:
            raise ProtocolError("exchange already aborted")
        if len(received) > self.window:
            raise ProtocolError(
                f"peer sent {len(received)} blocks into a window of {self.window}"
            )
        junk = sum(1 for block in received if not self._validator.validate(block))
        result = RoundResult(
            round_index=len(self.rounds),
            window=self.window,
            blocks_sent=self.window,
            junk_received=junk,
            aborted=junk > 0,
        )
        self.rounds.append(result)
        if junk > 0:
            # We shipped a full window against junk: that is the haul.
            self.blocks_lost_to_cheater += self.window
            self.aborted = True
        else:
            self.window = min(self.max_window, self.window * 2)
        return result

    @property
    def total_rounds(self) -> int:
        """How many windowed rounds the exchange ran."""
        return len(self.rounds)


def simulate_defection(
    defect_round: int,
    initial_window: int = 1,
    max_window: int = 8,
    service: Optional["object"] = None,
) -> WindowedExchange:
    """Drive an exchange where the peer defects at ``defect_round``.

    Returns the finished exchange; useful for tabulating haul vs. the
    honesty investment (rounds of real blocks) a cheater must make.
    """
    from repro.security.checksums import ChecksumService

    checksums = service if service is not None else ChecksumService()
    exchange = WindowedExchange(
        BlockValidator(checksums),
        initial_window=initial_window,
        max_window=max_window,
    )
    round_index = 0
    while not exchange.aborted:
        cheat_now = round_index >= defect_round
        blocks = [
            Block(object_id=1, index=round_index * max_window + i, valid=not cheat_now)
            for i in range(exchange.window)
        ]
        exchange.run_round(blocks)
        round_index += 1
        if round_index > defect_round + 64:  # honest forever: stop the tabletop
            break
    return exchange
