"""Adaptive strategy dynamics: peers that revise whether to share.

The paper's populations are *fixed*: a peer built as a free-rider stays
one for the whole run, and the incentive mechanisms are evaluated by
comparing the two static classes.  The game-theoretic related work goes
one step further — Salek et al. ("You Share, I Share") and Buragohain
et al. ("A Game Theoretic Framework for Incentives in P2P Systems")
model sharing as a *strategic decision* that peers revise in response
to observed payoffs, and ask which sharing level the population
converges to under each incentive mechanism.  This module closes that
gap.

A :class:`StrategySpec` declares how one peer class revises its
behaviour.  Its ``rule`` is one of two:

* ``best-response`` — every ``revision_period`` seconds, pool the
  *realized payoffs* of the currently sharing peers and of the
  currently free-riding peers over a sliding ``window`` — mean download
  time, exchange-session fraction, and the credit/participation
  standing from each peer's
  :class:`~repro.core.disciplines.ServiceDiscipline`, minus a
  ``sharing_cost`` charged while it serves — and move revising peers
  toward the better side (best response to the population's observed
  payoffs, after Buragohain et al.);
* ``static`` — never revise (the paper's model, and the default).

Switching is implemented with the same world-mutation machinery the
scenario layer uses: :meth:`~repro.network.peer.Peer.set_sharing`
republishes or withdraws the peer's store, terminates its uploads and
drains its request queue, so a mid-run convert behaves exactly like a
built-that-way peer from the next instant on.

Determinism: all strategy randomness draws from the dedicated
``"strategy"`` RNG stream, revisions walk peers in enrollment (peer id)
order, and a fully static configuration constructs no director,
schedules no events and consumes no RNG — static runs replay
pre-strategy builds bit-identically (the golden fig7 pins guard this).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.sim.processes import PeriodicProcess
from repro.units import seconds_to_minutes

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.network.peer import Peer
    from repro.scenario import StrategyShock
    from repro.simulation import FileSharingSimulation

#: Update-rule names accepted by :attr:`StrategySpec.rule`.
STRATEGY_RULES = ("static", "best-response")


@dataclass(frozen=True)
class StrategySpec:
    """How one peer class revises its sharing strategy.

    The default is ``static`` — never revise — which is the paper's
    fixed-population model and is guaranteed to add no events and
    consume no RNG.  Payoffs are measured in minutes-of-download-time
    units: larger is better, and the components are

    ``- mean download time (min)``
        realized service over the sliding window;
    ``+ exchange_weight × exchange-session fraction``
        how much of the peer's traffic ran at exchange priority;
    ``+ standing_weight × discipline standing``
        the peer's credit/participation standing (its upload/download
        ratio, in ``[0, 1]``) as reported by its service discipline;
    ``- sharing_cost`` (while sharing)
        the contribution cost of serving: upload bandwidth, slots and
        storage pinned for others (Buragohain et al.'s cost term).
    """

    #: One of :data:`STRATEGY_RULES`.
    rule: str = "static"
    #: Seconds between revision epochs.
    revision_period: float = 2_000.0
    #: Sliding payoff window in seconds (records older than this are
    #: forgotten at revision time).
    window: float = 6_000.0
    #: When revisions begin: the first epoch fires one period after
    #: this instant.  ``None`` defers to the config's measurement
    #: ``warmup`` — early transients (empty queues, cold caches) are
    #: not representative payoffs to revise on.
    start: Optional[float] = None
    #: Probability that a peer revises at each epoch (revision inertia:
    #: values < 1 smooth the dynamics and prevent all-flip oscillation).
    revision_probability: float = 0.5
    #: Proportional-switching scale (minutes): a revising peer switches
    #: with probability ``min(1, payoff_gap / payoff_sensitivity)``, so
    #: switch pressure fades as the population nears the equilibrium
    #: where the gap closes (the classic proportional-imitation /
    #: Smith-dynamic smoothing).
    payoff_sensitivity: float = 15.0
    #: Payoff cost (minutes-equivalent) charged per epoch while sharing.
    sharing_cost: float = 6.0
    #: Weight of the exchange-session fraction payoff term.
    exchange_weight: float = 10.0
    #: Weight of the discipline-standing payoff term.
    standing_weight: float = 2.0

    @property
    def is_static(self) -> bool:
        """Whether this spec never revises (no director, no RNG)."""
        return self.rule == "static"

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on the first invalid field."""
        if self.rule not in STRATEGY_RULES:
            raise ConfigError(
                f"unknown strategy rule {self.rule!r}; expected one of "
                f"{STRATEGY_RULES}"
            )
        if not (self.revision_period > 0 and math.isfinite(self.revision_period)):
            raise ConfigError(
                f"revision_period must be positive and finite, got "
                f"{self.revision_period}"
            )
        if not (self.window > 0 and math.isfinite(self.window)):
            raise ConfigError(f"window must be positive and finite, got {self.window}")
        if self.start is not None and not (
            self.start >= 0 and math.isfinite(self.start)
        ):
            raise ConfigError(f"start must be >= 0 and finite, got {self.start}")
        if not 0.0 < self.revision_probability <= 1.0:
            raise ConfigError(
                "revision_probability must be in (0,1], got "
                f"{self.revision_probability}"
            )
        if not (self.payoff_sensitivity > 0 and math.isfinite(self.payoff_sensitivity)):
            raise ConfigError(
                "payoff_sensitivity must be positive and finite, got "
                f"{self.payoff_sensitivity}"
            )
        for name in ("sharing_cost", "exchange_weight", "standing_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{name} must be >= 0 and finite, got {value}")


#: The never-revise spec inherited when neither the class nor the
#: global config declares a strategy.
STATIC = StrategySpec()


class _PeerWindow:
    """One peer's sliding-window observations (incrementally maintained)."""

    __slots__ = ("downloads", "sessions")

    def __init__(self) -> None:
        #: ``(complete_time, download_minutes)`` of completed downloads.
        self.downloads: Deque[Tuple[float, float]] = deque()
        #: ``(end_time, is_exchange)`` of sessions the peer requested.
        self.sessions: Deque[Tuple[float, bool]] = deque()

    def evict_before(self, cutoff: float) -> None:
        """Forget observations that slid out of the window."""
        downloads = self.downloads
        while downloads and downloads[0][0] < cutoff:
            downloads.popleft()
        sessions = self.sessions
        while sessions and sessions[0][0] < cutoff:
            sessions.popleft()


class StrategyDirector:
    """Runs the revision epochs for every strategy-enabled peer.

    Constructed by :meth:`~repro.simulation.FileSharingSimulation.build`
    (after the :class:`~repro.scenario.ScenarioDirector`, so scenario
    events scheduled at build time always apply *before* a strategy
    revision at the same timestamp — the engine breaks equal-time ties
    by scheduling sequence).  Peers enroll per class; classes sharing an
    identical :class:`StrategySpec` share one periodic revision process.
    """

    def __init__(self, sim: "FileSharingSimulation") -> None:
        self.sim = sim
        self.ctx = sim.ctx
        self._rand = self.ctx.rng.stream("strategy")
        self._windows: Dict[int, _PeerWindow] = {}
        #: peer id → time of its last behaviour switch.  Records whose
        #: *request* predates the switch are ignored: a download issued
        #: as a sharer completes at exchange/credit priority long after
        #: the peer turned free-rider, and would credit the wrong side.
        self._last_switch: Dict[int, float] = {}
        #: spec → enrolled peer ids, in enrollment (= peer id) order.
        self._groups: Dict[StrategySpec, List[int]] = {}
        self._processes: Dict[StrategySpec, PeriodicProcess] = {}
        # Row cursors start at the current counts: a director born
        # mid-run enrolls only peers spawned from now on, and peer ids
        # are never reused, so no earlier row can land in its windows.
        self._session_index, self._download_index = self.ctx.metrics.follow_rows()
        self._epoch = 0
        self._payoff_bias = 0.0
        self._bias_until = -math.inf

    # ------------------------------------------------------------------
    # enrollment
    # ------------------------------------------------------------------
    def enroll(self, peer: "Peer", spec: StrategySpec) -> None:
        """Register one peer for periodic revision under ``spec``.

        Static specs are ignored.  The first enrollment for a given
        spec starts that spec's revision process (first epoch one full
        ``revision_period`` from now).
        """
        if spec.is_static:
            return
        self._windows[peer.peer_id] = _PeerWindow()
        group = self._groups.setdefault(spec, [])
        group.append(peer.peer_id)
        if spec not in self._processes:
            # First epoch one period after the spec's start (default:
            # the measurement warmup) — or after *now* for groups born
            # mid-run, whose world is already warm.
            start = spec.start if spec.start is not None else self.sim.config.warmup
            now = self.ctx.now
            delay = max(start + spec.revision_period - now, spec.revision_period)
            process = PeriodicProcess(
                self.ctx.engine,
                spec.revision_period,
                lambda s=spec: self._revise(s),
                name=f"strategy.revision.{len(self._processes)}",
                start_delay=delay,
            )
            self._processes[spec] = process
            self.sim.register_process(process)

    # ------------------------------------------------------------------
    # payoff evaluation
    # ------------------------------------------------------------------
    def _ingest_new_records(self) -> None:
        """Fold records landed since the last epoch into the windows."""
        metrics = self.ctx.metrics
        windows = self._windows
        last_switch = self._last_switch
        # Incremental row feeds: scalar tuples rather than record objects.
        # Rows are read here, at epoch time, not as they land: the
        # last-switch filter depends on when a row is read, and a
        # StrategyShock moves it between epochs.
        num_downloads = metrics.num_downloads
        for peer_id, request_time, complete_time, download_time in (
            metrics.download_rows_since(self._download_index)
        ):
            window = windows.get(peer_id)
            if window is not None and request_time >= last_switch.get(peer_id, 0.0):
                window.downloads.append(
                    (complete_time, seconds_to_minutes(download_time))
                )
        self._download_index = num_downloads
        num_sessions = metrics.num_sessions
        for requester_id, request_time, end_time, is_exchange in (
            metrics.session_rows_since(self._session_index)
        ):
            window = windows.get(requester_id)
            if window is not None and request_time >= last_switch.get(
                requester_id, 0.0
            ):
                window.sessions.append((end_time, is_exchange))
        self._session_index = num_sessions

    # ------------------------------------------------------------------
    # revision epochs
    # ------------------------------------------------------------------
    def _side_payoff(
        self, spec: StrategySpec, members: List["Peer"], sharing: bool
    ) -> Optional[float]:
        """Pooled realized payoff of one strategy side (see :class:`StrategySpec`).

        Pools every window record of the side's peers (weighting peers
        by how much they observed) instead of averaging per-peer means:
        at revision granularity most peers hold only a handful of
        records, and the pooled estimate is what keeps best-response
        dynamics tracking the mechanism's discrimination rather than
        sampling noise.  Only *veterans* — peers on this side for at
        least one full window — contribute: a recent convert's counted
        completions are exactly the fast ones (its slow requests have
        not completed yet), and that right-censoring would make
        whichever side is gaining members look spuriously good and herd
        the population.  ``None`` when the side completed no download.
        """
        now = self.ctx.now
        last_switch = self._last_switch
        total_time = 0.0
        downloads = 0
        exchange_sessions = 0
        sessions = 0
        standing_total = 0.0
        veterans = 0
        for peer in members:
            if now - last_switch.get(peer.peer_id, 0.0) < spec.window:
                continue
            veterans += 1
            window = self._windows[peer.peer_id]
            downloads += len(window.downloads)
            # Float sums here are left folds, never builtin sum(): from
            # CPython 3.12 sum() compensates them (lint rule NUM001).
            # Per-peer subtotal first, as the pooled payoff always summed.
            peer_time = 0.0
            for _, minutes in window.downloads:
                peer_time += minutes
            total_time += peer_time
            sessions += len(window.sessions)
            # simlint: disable=NUM001 -- int tally, no rounding
            exchange_sessions += sum(1 for _, is_x in window.sessions if is_x)
            standing_total += peer.discipline.standing()
        if not downloads:
            return None
        value = -total_time / downloads
        if sessions:
            value += spec.exchange_weight * (exchange_sessions / sessions)
        value += spec.standing_weight * (standing_total / veterans)
        if sharing:
            value -= spec.sharing_cost
        return value

    def _revise(self, spec: StrategySpec) -> None:
        """One revision epoch for the peers enrolled under ``spec``."""
        ctx = self.ctx
        now = ctx.now
        self._ingest_new_records()
        cutoff = now - spec.window
        peers = ctx.peers
        group: List["Peer"] = []
        for peer_id in self._groups[spec]:
            peer = peers[peer_id]
            if peer.departed:
                continue
            self._windows[peer_id].evict_before(cutoff)
            group.append(peer)

        sharers = [p for p in group if p.behavior.shares]
        freeloaders = [p for p in group if not p.behavior.shares]
        mean_sharing = self._side_payoff(spec, sharers, sharing=True)
        mean_freeloading = self._side_payoff(spec, freeloaders, sharing=False)
        biased_sharing = mean_sharing
        if mean_sharing is not None and now < self._bias_until:
            biased_sharing = mean_sharing + self._payoff_bias

        # Best response: the side with the higher pooled payoff, and by
        # how much.  Ties and missing data never force a switch.
        target: Optional[bool] = None
        gap = 0.0
        if biased_sharing is not None and mean_freeloading is not None:
            if biased_sharing > mean_freeloading:
                target, gap = True, biased_sharing - mean_freeloading
            elif biased_sharing < mean_freeloading:
                target, gap = False, mean_freeloading - biased_sharing

        revised = 0
        to_sharing = 0
        to_freeloading = 0
        for peer in group:
            # Offline peers are not experiencing the system; they revise
            # when they are back with fresh observations.
            if not peer.online:
                continue
            if self._rand.random() >= spec.revision_probability:
                continue
            revised += 1
            if target is None or target == peer.behavior.shares:
                continue
            # Proportional switching: the pull toward the better
            # strategy scales with how much better it looks, so switch
            # pressure vanishes as the payoff gap closes and the
            # population settles instead of all-flip oscillating.
            if gap < spec.payoff_sensitivity and (
                self._rand.random() >= gap / spec.payoff_sensitivity
            ):
                continue
            if self._switch(peer, target):
                if target:
                    to_sharing += 1
                else:
                    to_freeloading += 1

        self._epoch += 1
        enrolled, sharing = self._enrolled_sharing_counts()
        ctx.metrics.count("strategy.epoch")
        ctx.metrics.add_strategy_epoch(
            time=now,
            epoch=self._epoch,
            enrolled=enrolled,
            sharing=sharing,
            revised=revised,
            switched_to_sharing=to_sharing,
            switched_to_freeloading=to_freeloading,
            mean_payoff_sharing=mean_sharing,
            mean_payoff_freeloading=mean_freeloading,
        )

    def _switch(self, peer: "Peer", share: bool) -> bool:
        """Flip one peer's behaviour and keep the accounting straight."""
        if not peer.set_sharing(share):
            return False
        # The window reflects the old strategy's payoffs; judging the
        # new behaviour by them would pollute both sides' pools.
        self._windows[peer.peer_id] = _PeerWindow()
        self._last_switch[peer.peer_id] = self.ctx.now
        self.ctx.metrics.count(
            "strategy.switch_to_sharing" if share else "strategy.switch_to_freeloading"
        )
        return True

    def _enrolled_sharing_counts(self) -> Tuple[int, int]:
        """(alive enrolled peers, how many of them currently share)."""
        peers = self.ctx.peers
        enrolled = 0
        sharing = 0
        for peer_id in self._windows:
            peer = peers[peer_id]
            if peer.departed:
                continue
            enrolled += 1
            if peer.behavior.shares:
                sharing += 1
        return enrolled, sharing

    # ------------------------------------------------------------------
    # scenario integration
    # ------------------------------------------------------------------
    def apply_shock(self, event: "StrategyShock") -> None:
        """Apply a :class:`~repro.scenario.StrategyShock` scenario event.

        ``flip_fraction`` forcibly flips that fraction of the enrolled
        (alive, online) peers — a perturbation to probe equilibrium
        stability; ``payoff_bias`` is added to the sharing side of every
        best-response comparison until ``event.duration`` elapses — a
        perceived-payoff shock (subsidy when positive, scare when
        negative).
        """
        ctx = self.ctx
        if event.flip_fraction > 0.0:
            eligible = sorted(
                peer_id
                for peer_id in self._windows
                if not ctx.peers[peer_id].departed and ctx.peers[peer_id].online
            )
            count = int(round(len(eligible) * event.flip_fraction))
            for peer_id in self._rand.sample(eligible, count):
                peer = ctx.peers[peer_id]
                if self._switch(peer, not peer.behavior.shares):
                    ctx.metrics.count("strategy.shock_flip")
        if event.payoff_bias != 0.0:
            self._payoff_bias = event.payoff_bias
            self._bias_until = ctx.now + event.duration
