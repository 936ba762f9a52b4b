"""Object lookup oracle.

The paper deliberately abstracts object lookup ("we ignore the details
of object lookup ... our approach can work with several known search
mechanisms including broadcast in Gnutella-like networks or a DHT
query") and assumes a peer "can locate up to a certain fraction of
peers that currently have the object".

:class:`LookupService` implements that contract with the fraction at
one, as a global provider index: sharing peers register the objects
they store, and a lookup returns every current provider in an order
shuffled with the caller's RNG stream, so runs stay deterministic.

Per-object counters (:meth:`LookupService.object_versions`) count the
mutations of each provider set.  Exchange-search gating keys off them
to prove "no provider set *I can see* changed since my last empty
search", so every register/unregister must bump its object's counter.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Set

from repro.errors import LookupError_

#: Shared empty view returned for never-registered objects (read-only).
_EMPTY_PROVIDERS: Set[int] = set()


class LookupService:
    """Global index of *shared* objects → provider peer ids."""

    def __init__(self) -> None:
        self._providers: Dict[int, Set[int]] = {}
        #: Sorted provider lists, built lazily per object and dropped on
        #: any mutation of that object's provider set.  ``find_providers``
        #: used to ``sorted()`` the live set on every call — at scale
        #: that sort dominated the lookup cost while the underlying set
        #: changed orders of magnitude less often than it was read.
        self._sorted: Dict[int, List[int]] = {}
        #: Per-object mutation counters (never deleted, so an object
        #: whose provider set empties and later refills keeps counting
        #: up).  Exchange-search gating keys off these, so index churn
        #: elsewhere — every download completion registers something
        #: somewhere — does not reopen every peer's gate.
        self._versions: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # index maintenance (called by sharing peers on store/evict)
    # ------------------------------------------------------------------
    def register(self, peer_id: int, object_id: int) -> None:
        """Add ``peer_id`` as a provider of ``object_id`` (publish)."""
        self._providers.setdefault(object_id, set()).add(peer_id)
        self._sorted.pop(object_id, None)
        self._versions[object_id] = self._versions.get(object_id, 0) + 1

    def unregister(self, peer_id: int, object_id: int) -> None:
        """Withdraw one provider registration; unknown pairs raise."""
        providers = self._providers.get(object_id)
        if providers is None or peer_id not in providers:
            raise LookupError_(
                f"peer {peer_id} is not a registered provider of object {object_id}"
            )
        providers.remove(peer_id)
        if not providers:
            del self._providers[object_id]
        self._sorted.pop(object_id, None)
        self._versions[object_id] = self._versions.get(object_id, 0) + 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def provider_view(self, object_id: int) -> Set[int]:
        """The live provider set itself — read-only by convention, no copy.

        The exchange machinery, which the paper allows to reuse "the
        original provider list", reads every pending object's provider
        set on every ungated pass, so the set is not copied.  Callers
        must only *read* the result (set intersections, membership) and
        must not hold it across events.  The view may contain the
        calling peer itself; ring search already rejects any path
        through the searcher.
        """
        view = self._providers.get(object_id)
        return view if view is not None else _EMPTY_PROVIDERS

    def provider_index(self) -> Mapping[int, Set[int]]:
        """The live object → provider-set map — read-only by convention.

        Invariant: every key maps to a nonempty set, because
        :meth:`unregister` deletes a set the moment it empties.  So
        ``object_id in provider_index()`` is exactly
        ``len(provider_view(object_id)) > 0``, which is how the request
        sampler tests locatability without a method call per candidate.
        The map is never rebound, so a held reference stays live.
        """
        return self._providers

    def object_versions(self) -> Dict[int, int]:
        """The live per-object mutation counters — read-only by convention.

        ``object_versions().get(object_id, 0)`` is one object's count (0
        = never registered).  Hot paths that fingerprint many objects
        per call (:func:`~repro.core.exchange_manager.search_state_key`
        runs on every scan) bind ``.get`` once.
        """
        return self._versions

    def _sorted_providers(self, object_id: int) -> List[int]:
        """Cached ascending provider list; read-only by convention."""
        cached = self._sorted.get(object_id)
        if cached is None:
            live = self._providers.get(object_id)
            if not live:
                return []
            cached = sorted(live)
            self._sorted[object_id] = cached
        return cached

    def find_providers(
        self, object_id: int, requester_id: int, rand: random.Random
    ) -> List[int]:
        """Every live provider except the requester, in seeded random order."""
        base = self._sorted_providers(object_id)
        if not base:
            return []
        # A fresh list per call: the shuffle below must never touch the
        # cached sorted view, and callers may keep the result.
        candidates = [p for p in base if p != requester_id]
        if not candidates:
            return []
        rand.shuffle(candidates)
        return candidates

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LookupService(objects={len(self._providers)})"
