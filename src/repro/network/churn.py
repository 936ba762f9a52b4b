"""Peer churn: alternating online/offline sessions (extension).

The paper's simulation keeps all 200 peers online; disconnection only
appears as a *reason* rings break ("some peers may have gone offline,
or crashed") and as the §V observation that "transient peer
participation" stresses credit systems.  This extension adds an
explicit on/off session model so those paths are exercised.

The actual teardown/rejoin logic lives on the peer itself —
:meth:`~repro.network.peer.Peer.disconnect` /
:meth:`~repro.network.peer.Peer.reconnect` — so churn round-trips and
the scenario layer's *permanent* departures share one audited path.

Enable via ``SimulationConfig(churn_enabled=True, ...)``; session and
downtime durations are exponential with the configured means, drawn
from a dedicated RNG stream so runs stay deterministic.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.context import SimContext
    from repro.network.peer import Peer


class ChurnModel:
    """Drives alternating exponential on/off sessions for a set of peers."""

    def __init__(
        self,
        ctx: "SimContext",
        peers: List["Peer"],
        mean_online: float,
        mean_offline: float,
        rand: random.Random,
    ) -> None:
        if mean_online <= 0 or mean_offline <= 0:
            raise ConfigError(
                f"churn means must be positive, got {mean_online}/{mean_offline}"
            )
        self._ctx = ctx
        self._mean_online = mean_online
        self._mean_offline = mean_offline
        self._rand = rand
        for peer in peers:
            self._schedule_offline(peer)

    def enroll(self, peer: "Peer") -> None:
        """Start driving a peer that joined mid-run (scenario arrivals)."""
        self._schedule_offline(peer)

    def _schedule_offline(self, peer: "Peer") -> None:
        delay = self._rand.expovariate(1.0 / self._mean_online)
        self._ctx.engine.schedule(
            delay, lambda p=peer: self._go_offline(p), name=f"churn.off.p{peer.peer_id}"
        )

    def _schedule_online(self, peer: "Peer") -> None:
        delay = self._rand.expovariate(1.0 / self._mean_offline)
        self._ctx.engine.schedule(
            delay, lambda p=peer: self._go_online(p), name=f"churn.on.p{peer.peer_id}"
        )

    def _go_offline(self, peer: "Peer") -> None:
        if peer.departed:
            return  # permanently gone: stop driving this peer
        peer.disconnect()
        self._schedule_online(peer)

    def _go_online(self, peer: "Peer") -> None:
        if peer.departed:
            return
        peer.reconnect()
        self._schedule_offline(peer)
