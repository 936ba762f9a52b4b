"""The peer node model.

A :class:`Peer` owns one object store, one IRQ, one upload and one
download slot pool, and the set of its pending downloads.  Its event
handlers wire the workload (issue requests on completion), the exchange
machinery (search/commit on every scheduling pass) and the FIFO
fallback scheduler together.

Scheduling passes are *deferred and coalesced*: mutations (a new IRQ
entry, a freed slot) call :meth:`Peer.schedule_pass`, which enqueues a
zero-delay event.  All ring formation and normal service then happens
inside that event, never re-entrantly inside another peer's mutation —
this is what makes the token pass's validate-then-commit sequence
atomic.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.content.storage import ObjectStore
from repro.content.workload import RequestGenerator
from repro.core import exchange_manager, scheduler
from repro.core.disciplines import ServiceDiscipline
from repro.core.irq import IncomingRequestQueue, RequestEntry
from repro.core.policies import ExchangePolicy
from repro.core.request_tree import RequestTreeNode, build_snapshot, reroot, reuse_equal
from repro.errors import ProtocolError
from repro.metrics.records import TerminationReason
from repro.network.behaviors import FREELOADER, SHARER, PeerBehavior
from repro.network.capacity import SlotPool
from repro.network.download import DownloadState

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.content.catalog import ContentObject
    from repro.content.interests import InterestProfile
    from repro.context import SimContext
    from repro.network.transfer import Transfer
    from repro.sim.processes import PeriodicProcess

#: Back-off, in seconds, before a peer whose workload found no
#: requestable object draws candidates again.
WORKLOAD_RETRY_INTERVAL = 240.0
#: Abandon a pending download after this many consecutive scans in
#: which no provider could be located (the object left the network,
#: e.g. every copy was evicted).  Frees the pending slot for a
#: locatable request, like a user cancelling a dead download.
ABANDON_AFTER_LOOKUP_FAILURES = 5


class Peer:
    """One participant of the file-sharing network."""

    # 50k-peer runs hold every Peer alive for the whole simulation, so
    # the per-instance ``__dict__`` (~100 bytes each plus hash-table
    # slack) is pure overhead — the attribute set is fixed at __init__.
    __slots__ = (
        "ctx",
        "peer_id",
        "behavior",
        "policy",
        "profile",
        "store",
        "class_name",
        "online",
        "departed",
        "upload_capacity_kbit",
        "download_capacity_kbit",
        "upload_pool",
        "download_pool",
        "irq",
        "pending",
        "workload",
        "_uploads",
        "_exchange_uploads",
        "_pass_scheduled",
        "idle_search_key",
        "periodic_processes",
        "_snapshot_cache",
        "_last_tree_refresh",
        "_push_complete_version",
        "_workload_stalled_until",
        "_rand",
        "discipline",
    )

    def __init__(
        self,
        ctx: "SimContext",
        peer_id: int,
        behavior: PeerBehavior,
        policy: ExchangePolicy,
        profile: "InterestProfile",
        store: ObjectStore,
        *,
        upload_capacity_kbit: float,
        download_capacity_kbit: float,
        discipline: ServiceDiscipline,
        class_name: str,
    ) -> None:
        config = ctx.config
        self.ctx = ctx
        self.peer_id = peer_id
        self.behavior = behavior
        self.policy = policy
        self.profile = profile
        self.store = store
        #: Population-class label threaded into the metrics records.
        self.class_name = class_name
        self.online = True
        #: Permanently departed (scenario timelines): the teardown ran
        #: once and :meth:`reconnect` refuses forever after.
        self.departed = False
        # Link capacities are per peer: a class spec may give this peer a
        # broadband uplink while its neighbour runs on a modem.
        self.upload_capacity_kbit = upload_capacity_kbit
        self.download_capacity_kbit = download_capacity_kbit
        self.upload_pool = SlotPool(upload_capacity_kbit, config.slot_kbit)
        self.download_pool = SlotPool(download_capacity_kbit, config.slot_kbit)
        self.irq = IncomingRequestQueue(config.irq_capacity, counters=ctx.counters)
        # The request generator holds this dict live: mutate, never rebind.
        self.pending: Dict[int, DownloadState] = {}
        self.workload: Optional[RequestGenerator] = None  # set by attach_workload
        self._uploads: Dict[Tuple[int, int], "Transfer"] = {}
        self._exchange_uploads = 0
        self._pass_scheduled = False
        #: Change-tracking key of the last unrestricted ring search that
        #: found no candidates (see exchange_manager.search_state_key);
        #: None whenever a re-search could find something new.
        self.idle_search_key: Optional[tuple] = None
        #: This peer's periodic scan/storage processes, attached by the
        #: simulation assembly so churn can pause them while offline.
        self.periodic_processes: List["PeriodicProcess"] = []
        self._snapshot_cache: Optional[Tuple[int, Tuple[int, int], Optional[RequestTreeNode]]] = None
        self._last_tree_refresh = -math.inf
        #: IRQ version whose snapshot a *completed* refresh pass pushed
        #: to every live registered entry; None when some entry could
        #: not be refreshed (exchange-attached) or was never covered.
        self._push_complete_version: Optional[int] = None
        self._workload_stalled_until = -math.inf
        self._rand = ctx.rng.stream(f"peer{peer_id}")
        # The service discipline owns the baseline-mechanism state
        # (credit ledger, participation reporter) and the queue ordering.
        self.discipline = discipline
        # Ring search's provider masks span every peer id.
        ctx.peer_table.register(peer_id)

    # ------------------------------------------------------------------
    # identity & capability
    # ------------------------------------------------------------------
    @property
    def shares(self) -> bool:
        """Whether this peer currently serves content."""
        return self.behavior.shares and self.online

    @property
    def credit(self):
        """The discipline-owned eMule credit ledger (always maintained)."""
        return self.discipline.credit

    @property
    def participation(self):
        """The discipline-owned KaZaA participation reporter."""
        return self.discipline.participation

    @property
    def exchange_upload_count(self) -> int:
        """Active uploads currently running at exchange priority."""
        return self._exchange_uploads

    def active_uploads(self) -> List["Transfer"]:
        """Snapshot list of this peer's running upload transfers."""
        return list(self._uploads.values())

    def available_blocks(self, object_id: int) -> int:
        """How many blocks of the object this peer can currently serve.

        A fully stored object serves all its blocks.  Under the
        ``serve_partial`` extension (paper §V), an in-progress download
        serves the blocks received so far.  Otherwise zero.
        """
        if object_id in self.store:
            # Inlined blocks_for_object: this sits on the token-veto /
            # serve hot path, and the extra bound-method hop is
            # measurable at 50k peers.
            return self.ctx.blocks_for(object_id)
        if self.ctx.config.serve_partial:
            download = self.pending.get(object_id)
            if download is not None:
                return download.delivered_blocks
        return 0

    def can_serve(self, object_id: int) -> bool:
        """Whether any block of the object is currently servable.

        Exactly ``available_blocks(object_id) > 0``, minus the block
        count lookup: a stored object always serves at least one block
        (``ctx.blocks_for`` floors at 1), so the token-veto and serve
        hot paths only need the store membership test.
        """
        if object_id in self.store:
            return True
        if self.ctx.config.serve_partial:
            download = self.pending.get(object_id)
            if download is not None:
                return download.delivered_blocks > 0
        return False

    def blocks_for_object(self, object_id: int) -> int:
        """Total blocks of one object (memoized on the context)."""
        return self.ctx.blocks_for(object_id)

    # ------------------------------------------------------------------
    # workload
    # ------------------------------------------------------------------
    def attach_workload(self, workload: RequestGenerator) -> None:
        """Wire the request generator that feeds ``fill_pending``."""
        self.workload = workload

    def fill_pending(self) -> int:
        """Issue new requests until ``max_pending`` is reached.

        A peer whose interest categories currently offer no requestable
        object backs off for :data:`WORKLOAD_RETRY_INTERVAL` instead of
        redrawing hundreds of candidates on every scan.
        """
        if self.workload is None:
            raise ProtocolError(f"peer {self.peer_id} has no workload attached")
        # Offline (or departed) peers issue nothing: a staggered
        # bootstrap can fire after churn or a scenario departure took
        # the peer down, and a request registered then would sit in
        # live providers' IRQs with nobody ever withdrawing it.
        # Reconnecting peers refill via their first scan.
        if not self.online:
            return 0
        if self.ctx.now < self._workload_stalled_until:
            return 0
        issued = 0
        while len(self.pending) < self.ctx.config.max_pending:
            candidate = self.workload.next_request()
            if candidate is None:
                self.ctx.metrics.count("workload.no_candidate")
                self._workload_stalled_until = self.ctx.now + WORKLOAD_RETRY_INTERVAL
                break
            self.start_download(candidate)
            issued += 1
        return issued

    def start_download(self, obj: "ContentObject") -> DownloadState:
        """Open a download: lookup, pre-send ring check, register requests."""
        if obj.object_id in self.pending:
            raise ProtocolError(
                f"peer {self.peer_id} already has a pending request "
                f"for object {obj.object_id}"
            )
        ctx = self.ctx
        download = DownloadState(
            peer_id=self.peer_id,
            obj=obj,
            request_time=ctx.now,
            total_blocks=self.blocks_for_object(obj.object_id),
        )
        self.pending[obj.object_id] = download
        providers = ctx.lookup.find_providers(obj.object_id, self.peer_id, self._rand)
        if not providers:
            ctx.metrics.count("lookup.miss")
            return download
        # Paper §III-A: the requester inspects its entire request tree
        # *before* transmitting a request, closing a ring if it can.
        if self.policy.enables_exchanges and self.shares:
            exchange_manager.try_form_exchanges(self, only_object=obj.object_id)
        self._register_at_providers(download, providers)
        return download

    def _register_at_providers(
        self, download: DownloadState, providers: List[int]
    ) -> int:
        # A provider can appear both as a registration and as an active
        # source (entries stay attached while served), so count the union.
        engaged = download.registered_at | set(download.transfers)
        budget = self.ctx.config.request_fanout - len(engaged)
        count = 0
        for provider_id in providers:
            if budget <= 0:
                break
            if download.transfer_from(provider_id) is not None:
                continue  # already serving (e.g. via a just-formed ring)
            if self.register_request_at(provider_id, download):
                budget -= 1
                count += 1
        return count

    def register_request_at(self, provider_id: int, download: DownloadState) -> bool:
        """Register interest at a provider's IRQ; True on success."""
        if provider_id == self.peer_id:
            raise ProtocolError(f"peer {self.peer_id} cannot request from itself")
        if provider_id in download.registered_at:
            return False
        provider = self.ctx.peer(provider_id)
        if not provider.shares:
            return False
        # Adversarial admission (see repro.security.adversaries):
        # colluders refuse outsiders, honest providers refuse
        # blacklisted identities.  None for every honest run.
        adversary = self.ctx.adversary
        if adversary is not None and not adversary.allows(provider, self.peer_id):
            return False
        entry = RequestEntry(
            requester_id=self.peer_id,
            object_id=download.object.object_id,
            arrival_time=self.ctx.now,
            tree=self._tree_snapshot(),
        )
        if not provider.irq.add(entry):
            return False
        download.registered_at.add(provider_id)
        provider.schedule_pass()
        return True

    def requeue_request(self, provider: "Peer", download: DownloadState) -> bool:
        """Re-register after a preemption or ring break (paper §III:
        the peer "issues the request again")."""
        if download.completed or not self.online:
            return False
        if not provider.can_serve(download.object.object_id):
            return False
        return self.register_request_at(provider.peer_id, download)

    def _tree_snapshot(self) -> Optional[RequestTreeNode]:
        """The tree attached to outgoing requests, cached by IRQ version.

        Rebuilt only when this peer's IRQ content changed, so idle peers
        pay nothing for the periodic tree propagation.  A rebuild equal
        to the cached tree comes back as a fresh root over the cached
        children (:func:`~repro.core.request_tree.reuse_equal`): it is
        still a new snapshot, so every push happens, but the providers
        keep the views they derived from the old one.  The build itself
        is skipped when nothing it reads has moved: the queued entries
        and their tree shapes (``shape_version``) and their exchange
        bindings (``binding_epoch``).
        """
        levels = self.policy.tree_levels
        if levels <= 0:
            return None
        irq = self.irq
        version = irq.version
        cached = self._snapshot_cache
        if cached is not None and cached[0] == version:
            return cached[2]
        inputs = (irq.shape_version, irq.binding_epoch)
        if cached is not None and cached[1] == inputs and cached[2] is not None:
            # Only re-rooting refreshes moved the version.
            tree = reroot(cached[2])
        else:
            tree = build_snapshot(
                self.peer_id, irq, levels, self.ctx.config.max_tree_nodes
            )
            if cached is not None:
                tree = reuse_equal(tree, cached[2])
        self._snapshot_cache = (version, inputs, tree)
        return tree

    # ------------------------------------------------------------------
    # connectivity (the one audited teardown path: churn round-trips and
    # scenario departures both go through here)
    # ------------------------------------------------------------------
    def disconnect(self) -> None:
        """Go offline: kill transfers, withdraw requests, drain the IRQ,
        unpublish, and park the periodic processes.  Idempotent."""
        if not self.online:
            return
        ctx = self.ctx
        # Uploads first: our departure breaks any ring we serve in.  The
        # PEER_OFFLINE terminations also withdraw the served entries
        # from our IRQ and from their requesters' registration sets.
        for transfer in self.active_uploads():
            transfer.terminate(TerminationReason.PEER_OFFLINE)
        # Downloads: both the transfers and the queued registrations.
        for download in list(self.pending.values()):
            for transfer in list(download.transfers.values()):
                transfer.terminate(TerminationReason.PEER_OFFLINE, requeue=False)
            for provider_id in list(download.registered_at):
                ctx.peer(provider_id).irq.remove(
                    self.peer_id, download.object.object_id
                )
            download.registered_at.clear()
        # Drain the *queued* entries other peers registered with us.  An
        # entry left behind would keep us in its requester's
        # ``registered_at`` for the whole offline session, and a
        # download that looks engaged is never re-looked-up — the
        # requester would stall on a dead registration even with live
        # alternative providers in the index.
        self._drain_incoming_requests()
        if self.behavior.shares:
            for object_id in self.store.object_ids():
                ctx.lookup.unregister(self.peer_id, object_id)
        self.online = False
        self.suspend_periodic()
        ctx.metrics.count("churn.offline")

    def _drain_incoming_requests(self) -> None:
        """Withdraw every queued IRQ entry and notify its requester.

        Shared by :meth:`disconnect` and :meth:`set_sharing`: whether
        the peer went offline or merely stopped serving, a request left
        in its queue would pin the requester to a provider that will
        never serve it.
        """
        ctx = self.ctx
        for entry in list(self.irq.active_entries()):
            self.irq.remove(entry.requester_id, entry.object_id)
            requester = ctx.peer(entry.requester_id)
            download = requester.pending.get(entry.object_id)
            if download is not None:
                download.registered_at.discard(self.peer_id)
            requester.schedule_pass()

    def reconnect(self) -> None:
        """Come back online: re-publish the store and resume the
        workload.  A no-op while online — and forever once departed."""
        if self.online or self.departed:
            return
        ctx = self.ctx
        self.online = True
        if self.behavior.shares:
            for object_id in self.store.object_ids():
                ctx.lookup.register(self.peer_id, object_id)
        self.resume_periodic()
        ctx.metrics.count("churn.online")
        # Pending downloads re-register at providers on the next scan;
        # kick one immediately so short sessions still make progress.
        self.scan()

    # ------------------------------------------------------------------
    # scenario mutations
    # ------------------------------------------------------------------
    def retarget_interests(self, profile: "InterestProfile") -> None:
        """Swap the interest profile (flash crowds, demand shifts).

        Pending downloads are unaffected; only future request draws see
        the new interests.  The workload back-off is cleared so the new
        demand takes effect on the next scan rather than after a stale
        retry window.
        """
        self.profile = profile
        if self.workload is not None:
            self.workload.set_profile(profile)
        self._workload_stalled_until = -math.inf

    def set_sharing(self, share: bool) -> bool:
        """Switch between sharing and free-riding at runtime.

        The strategy layer's world mutation (see :mod:`repro.strategy`):
        a convert to sharing republishes its store and starts accepting
        requests from the next scheduling pass; a convert to free-riding
        terminates its uploads (breaking any exchange rings it served
        in), drains its request queue so requesters re-register at live
        providers, and withdraws its store from the lookup index.
        Pending *downloads* survive either way — the peer keeps
        consuming, only its serving side changes.

        Returns True when the behaviour actually changed.  While
        offline only the behaviour flag flips (an offline peer is
        already unpublished and drained); :meth:`reconnect` then
        registers — or not — according to the new behaviour.
        """
        if self.behavior.shares == share:
            return False
        if share:
            self.behavior = SHARER
            if self.online:
                for object_id in self.store.object_ids():
                    self.ctx.lookup.register(self.peer_id, object_id)
                # A fresh provider invalidates every idle-search gate
                # conclusion this peer reached as a non-sharer.
                self.idle_search_key = None
                self.schedule_pass()
        else:
            self.behavior = FREELOADER
            if self.online:
                for transfer in self.active_uploads():
                    transfer.terminate(TerminationReason.STOPPED_SHARING)
                self._drain_incoming_requests()
                for object_id in self.store.object_ids():
                    self.ctx.lookup.unregister(self.peer_id, object_id)
        return True

    def adopt_policy(self, policy: ExchangePolicy) -> None:
        """Adopt a new exchange mechanism mid-run (adoption ramps).

        Every policy-derived cache is invalidated: the idle-search gate
        (a different mechanism sees different candidates), the request
        tree snapshot (tree depth follows ``policy.tree_levels``) and
        the completed-push marker.  A scheduling pass is kicked so a
        newly enabled mechanism starts searching immediately.
        """
        self.policy = policy
        self.idle_search_key = None
        self._snapshot_cache = None
        self._push_complete_version = None
        self.schedule_pass()

    def resize_capacity(
        self,
        upload_capacity_kbit: Optional[float] = None,
        download_capacity_kbit: Optional[float] = None,
    ) -> None:
        """Re-provision link capacities (scenario capacity changes)."""
        if upload_capacity_kbit is not None:
            self.upload_capacity_kbit = upload_capacity_kbit
            self.upload_pool.resize(upload_capacity_kbit)
        if download_capacity_kbit is not None:
            self.download_capacity_kbit = download_capacity_kbit
            self.download_pool.resize(download_capacity_kbit)
        # Grown pools can serve queued entries right now.
        self.schedule_pass()

    # ------------------------------------------------------------------
    # periodic processes (attached by the simulation assembly)
    # ------------------------------------------------------------------
    def attach_periodic(self, process: "PeriodicProcess") -> None:
        """Track a scan/storage process so churn can pause it offline."""
        self.periodic_processes.append(process)

    def suspend_periodic(self) -> None:
        """Pause scan/storage loops (peer went offline).

        An offline peer's periodic events are pure heap churn — its
        scan/storage callbacks early-return on ``online`` — so under
        churn at scale they were a large fraction of all fired events.
        """
        for process in self.periodic_processes:
            process.pause()

    def resume_periodic(self) -> None:
        """Resume paused loops with a fresh per-process phase stagger.

        The stagger draws from this peer's own RNG stream, keeping
        churned runs deterministic while avoiding the thundering herd
        of every reconnecting peer scanning at the same instant.
        """
        for process in self.periodic_processes:
            if process.paused:
                process.resume(start_delay=self._rand.random() * process.interval)

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def schedule_pass(self) -> None:
        """Coalesced zero-delay scheduling pass (exchanges then FIFO)."""
        if self._pass_scheduled or not self.shares:
            return
        self._pass_scheduled = True
        self.ctx.engine.schedule(0.0, self._run_pass, name=f"pass.p{self.peer_id}")

    def _run_pass(self) -> None:
        self._pass_scheduled = False
        if not self.online:
            return
        if self.policy.enables_exchanges and self.shares:
            exchange_manager.try_form_exchanges(self)
        scheduler.serve_pending(self)

    def scan(self) -> None:
        """Periodic maintenance: exchange search, service, re-registration."""
        if not self.online:
            return
        policy = self.policy
        if policy.tree_levels > 1:  # otherwise a refresh has no tree to push
            self.refresh_outgoing_trees()
        if policy.enables_exchanges and self.shares:
            exchange_manager.try_form_exchanges(self)
        scheduler.serve_pending(self)
        self._replenish_downloads()

    def refresh_outgoing_trees(self) -> None:
        """Re-publish this peer's request tree on its registered requests.

        The paper's §V assumes request-tree information propagates
        (incrementally) between peers; its simulation does not charge
        for that traffic.  We model propagation at scan granularity:
        every scan, a peer pushes its current snapshot to the providers
        holding its open requests, so ring search upstream sees trees at
        most one scan interval stale.
        """
        if self.policy.tree_levels <= 1:
            return  # snapshots would carry no children anyway
        now = self.ctx.now
        if now - self._last_tree_refresh < self.ctx.config.tree_refresh_interval:
            return
        self._last_tree_refresh = now
        version = self.irq.version
        if version == self._push_complete_version:
            # A completed push already delivered this exact snapshot to
            # every live registered entry, and new registrations attach
            # the current snapshot at send time — walking the fanout
            # would push nothing.  (Any pass that had to skip an
            # exchange-attached entry cleared the marker, since that
            # entry goes stale-but-pushable when its ring ends.)
            return
        snapshot = None
        complete = True
        peers = self.ctx.peers
        peer_id = self.peer_id
        for download in self.pending.values():
            if download.completed:
                continue
            object_id = download.object.object_id
            for provider_id in download.registered_at:
                provider = peers[provider_id]
                entry = provider.irq.get(peer_id, object_id)
                if entry is None or not entry.active:
                    continue
                if entry.transfer is not None and entry.transfer.is_exchange:
                    complete = False  # stale once the exchange ends
                    continue
                if snapshot is None:
                    snapshot = self._tree_snapshot()
                if entry.tree is snapshot:
                    continue  # provider already holds the current tree
                provider.irq.refresh_tree(entry, snapshot)
        self._push_complete_version = version if complete else None

    def _replenish_downloads(self) -> None:
        ctx = self.ctx
        config = ctx.config
        if self.workload is not None and len(self.pending) < config.max_pending:
            self.fill_pending()
        # Most scans meet no starved download, so first walk the map in
        # place doing only what the loop below does before its first
        # starved download: skip, or clear an engaged download's lookup
        # failures.  Only the starved branch can mutate ``pending``, so
        # at the first starved download the loop runs over a copy from
        # the start, where repeating those clears is a no-op.
        for download in self.pending.values():
            if download.completed or download.unassigned_blocks <= 0:
                continue
            if download.transfers or download.registered_at:
                download.lookup_failures = 0
                continue
            break
        else:
            return
        for download in list(self.pending.values()):
            if download.completed or download.unassigned_blocks <= 0:
                continue
            if download.active_sources > 0 or download.registered_at:
                download.lookup_failures = 0
                continue
            providers = ctx.lookup.find_providers(
                download.object.object_id, self.peer_id, self._rand
            )
            if not providers:
                ctx.metrics.count("lookup.retry_miss")
                download.lookup_failures += 1
                if download.lookup_failures >= ABANDON_AFTER_LOOKUP_FAILURES:
                    self.abandon_download(download)
                continue
            download.lookup_failures = 0
            self._register_at_providers(download, providers)

    def abandon_download(self, download: DownloadState) -> None:
        """Cancel a download whose object left the network.

        Every copy of a rarely-held object can be evicted while a
        request is outstanding; rather than pinning a pending slot
        forever, the peer gives up (as a user would cancel a dead
        download) and requests something locatable instead.
        """
        object_id = download.object.object_id
        for transfer in list(download.transfers.values()):
            transfer.terminate(TerminationReason.REQUESTER_CANCELLED, requeue=False)
        for provider_id in list(download.registered_at):
            self.ctx.peer(provider_id).irq.remove(self.peer_id, object_id)
        download.registered_at.clear()
        self.pending.pop(object_id, None)
        self.ctx.metrics.count("download.abandoned")
        if self.workload is not None:
            self.fill_pending()

    def on_download_complete(self, download: DownloadState) -> None:
        """The last block arrived: store, publish, record, re-request."""
        object_id = download.object.object_id
        for transfer in list(download.transfers.values()):
            transfer.terminate(TerminationReason.COMPLETED)
        self.pending.pop(object_id, None)
        for provider_id in list(download.registered_at):
            provider = self.ctx.peer(provider_id)
            provider.irq.remove(self.peer_id, object_id)
        download.registered_at.clear()
        newly_stored = self.store.add_if_absent(object_id)
        if newly_stored and self.shares:
            self.ctx.lookup.register(self.peer_id, object_id)
        self.ctx.metrics.add_download(
            peer_id=self.peer_id,
            object_id=object_id,
            request_time=download.request_time,
            complete_time=self.ctx.now,
            size_kbit=download.object.size_kbit,
            peer_is_sharer=self.behavior.shares,
            class_name=self.class_name,
        )
        if self.workload is not None:
            self.fill_pending()

    def storage_check(self) -> None:
        """Periodic storage cleanup (paper §IV-A): evict random overflow.

        Eviction skips pinned objects (ongoing exchanges).  Evicting an
        object that a *normal* upload is serving terminates that upload
        ("the source deletes the object").
        """
        if not self.store.over_capacity:
            return
        evicted = self.store.evict_random_overflow(self._rand)
        if not evicted:
            return
        evicted_set = set(evicted)
        if self.shares:  # offline peers are already out of the index
            for object_id in evicted:
                self.ctx.lookup.unregister(self.peer_id, object_id)
        for transfer in self.active_uploads():
            if transfer.object.object_id in evicted_set:
                transfer.terminate(TerminationReason.SOURCE_DELETED)
        self.ctx.metrics.count("storage.evicted", len(evicted))

    # ------------------------------------------------------------------
    # upload registry (maintained by Transfer)
    # ------------------------------------------------------------------
    def register_upload(self, transfer: "Transfer") -> None:
        """Record a started upload (one per requester/object edge)."""
        key = (transfer.requester.peer_id, transfer.object.object_id)
        if key in self._uploads:
            raise ProtocolError(
                f"peer {self.peer_id} already uploads object {key[1]} to peer {key[0]}"
            )
        self._uploads[key] = transfer
        if transfer.is_exchange:
            self._exchange_uploads += 1

    def unregister_upload(self, transfer: "Transfer") -> None:
        """Drop a terminated upload from the registry."""
        key = (transfer.requester.peer_id, transfer.object.object_id)
        if self._uploads.get(key) is not transfer:
            raise ProtocolError(
                f"peer {self.peer_id}: unregister of unknown upload {key}"
            )
        del self._uploads[key]
        if transfer.is_exchange:
            self._exchange_uploads -= 1

    def note_upload_downgraded(self) -> None:
        """An exchange upload became a normal one (ring downgrade)."""
        if self._exchange_uploads <= 0:
            raise ProtocolError(
                f"peer {self.peer_id}: downgrade with no exchange uploads"
            )
        self._exchange_uploads -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Peer({self.peer_id}, {self.behavior.name}, "
            f"store={len(self.store)}/{self.store.capacity}, "
            f"pending={len(self.pending)}, irq={len(self.irq)})"
        )
