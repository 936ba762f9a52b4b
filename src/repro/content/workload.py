"""Request workload generation.

Each peer keeps up to ``max_pending`` outstanding object requests and
issues a fresh one the moment a download completes (§IV-A).  A candidate
request is a (category, object) draw; candidates already stored locally
("cache hits") or already pending are discarded and the draw repeats
until a miss is found — exactly the paper's procedure for avoiding
misleading cache-hit effects.

A candidate is two bisections over the rows of :func:`candidate_rows`:
``bisect_right`` of the first ``random()`` in the profile's category
table, then ``bisect_left`` of the second in that category's rank
table.  These are :meth:`InterestProfile.choose_category`'s
``point < bound`` scan and :meth:`RankPopularity.sample_index`, and
neither method's clamp can fire because both tables end at exactly 1.0
and ``random() < 1.0``.  So the draw is the same function of the same
two ``random()`` values as that call chain, with no Python call per
candidate.

Before the first draw, :meth:`RequestGenerator.next_request` checks
whether the rows hold any requestable object at all.  The rows are a
superset of what a draw can reach, and nothing they are checked against
changes during the call, so if none is requestable every draw misses:
the generator then advances its stream by exactly the
``2 * MAX_MISS_ATTEMPTS`` ``random()`` calls those draws would have
made — one ``getrandbits(128 * MAX_MISS_ATTEMPTS)``, since ``random()``
consumes two 32-bit Mersenne-Twister words and ``getrandbits(32 * k)``
consumes ``k`` — and returns None without drawing.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from typing import Container, List, Optional, Tuple

from repro.content.catalog import Catalog, ContentObject
from repro.content.interests import InterestProfile
from repro.content.popularity import PopularityCache
from repro.errors import ConfigError

#: Candidate draws per :meth:`RequestGenerator.next_request` call.  A
#: peer whose categories are almost fully cached may legitimately fail
#: to find a miss; the generator then returns None and the caller
#: retries later.
MAX_MISS_ATTEMPTS = 200

#: One profile category: its objects in popularity order and their
#: cumulative rank table.
Row = Tuple[Tuple[ContentObject, ...], List[float]]


def candidate_rows(
    catalog: Catalog,
    profile: InterestProfile,
    popularity_cache: PopularityCache,
    object_factor: float,
) -> List[Row]:
    """The draw rows of ``profile``: row ``i`` is ``category_ids[i]``'s.

    A bisect of ``profile.cumulative`` therefore indexes the rows
    directly.  Building them costs one cache lookup per profile
    category, so callers build them per call and never keep them:
    nothing can go stale after a profile swap or
    :meth:`~repro.content.catalog.Catalog.inject_object`, and no
    per-peer memory is held.
    """
    categories = catalog.categories
    rows: List[Row] = []
    for category_id in profile.category_ids:
        objects = categories[category_id].objects
        rows.append(
            (objects, popularity_cache.get(len(objects), object_factor).cumulative)
        )
    return rows


def _any_requestable(
    rows: List[Row],
    stored: Container[int],
    pending: Container[int],
    locatable: Container[int],
) -> bool:
    """Whether some object of ``rows`` is locatable and neither stored nor pending.

    Locatability is tested first: most objects of a profile's
    categories are held by no sharer, so one lookup settles them.
    """
    for objects, _ranks in rows:
        for candidate in objects:
            object_id = candidate.object_id
            if (
                object_id in locatable
                and object_id not in stored
                and object_id not in pending
            ):
                return True
    return False


class RequestGenerator:
    """Draws request candidates for one peer.

    Parameters
    ----------
    stored, pending:
        Live containers of object ids that must NOT be requested: the
        peer's :meth:`~repro.content.storage.ObjectStore.id_view` and
        its pending-download map.  They are held by reference, so every
        draw sees the peer's current state; their owners mutate them in
        place and never rebind them.
    locatable:
        Live container of the object ids the search mechanism can
        currently locate: the lookup's
        :meth:`~repro.network.lookup.LookupService.provider_index`.
        Users of real file-sharing systems request out of search
        results, so draws that search cannot resolve are skipped like
        cache hits are; the paper's workload keeps ``max_pending``
        downloads *active* per peer, which presumes locatable targets.
    """

    __slots__ = (
        "_catalog",
        "_profile",
        "_rand",
        "_object_factor",
        "_stored",
        "_pending",
        "_locatable",
        "_cache",
    )

    def __init__(
        self,
        catalog: Catalog,
        profile: InterestProfile,
        rand: random.Random,
        object_factor: float,
        stored: Container[int],
        pending: Container[int],
        locatable: Container[int],
        popularity_cache: PopularityCache,
    ) -> None:
        if not object_factor >= 0:  # NaN too, here rather than at the first draw
            raise ConfigError(f"object_factor must be >= 0, got {object_factor}")
        self._catalog = catalog
        self._profile = profile
        self._rand = rand
        self._object_factor = object_factor
        self._stored = stored
        self._pending = pending
        self._locatable = locatable
        self._cache = popularity_cache

    def set_profile(self, profile: InterestProfile) -> None:
        """Swap the interest profile mid-run (scenario demand shifts)."""
        self._profile = profile

    def next_request(self) -> Optional[ContentObject]:
        """Draw candidates until a locatable miss is found; None if none.

        Each candidate costs exactly two ``random()`` calls on this
        peer's stream, category first, and at most
        :data:`MAX_MISS_ATTEMPTS` candidates are drawn.  When no object
        of the profile's rows is requestable, no candidate is drawn and
        the stream advances as if all of them had been (see the module
        docstring).  Returning ``None`` (rather than raising) keeps a
        fully-saturated peer alive: it simply has no feasible request
        this instant.
        """
        profile = self._profile
        rows = candidate_rows(
            self._catalog, profile, self._cache, self._object_factor
        )
        stored = self._stored
        pending = self._pending
        locatable = self._locatable
        if not _any_requestable(rows, stored, pending, locatable):
            self._rand.getrandbits(128 * MAX_MISS_ATTEMPTS)
            return None
        table = profile.cumulative
        rand = self._rand.random
        for _ in range(MAX_MISS_ATTEMPTS):
            objects, ranks = rows[bisect_right(table, rand())]
            candidate = objects[bisect_left(ranks, rand())]
            object_id = candidate.object_id
            if (
                object_id not in stored
                and object_id not in pending
                and object_id in locatable
            ):
                return candidate
        return None
