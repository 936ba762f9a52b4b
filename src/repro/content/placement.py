"""Initial object placement.

"We initially place objects on each peer based on the peer's category
preferences" (§IV-A).  Each peer's store is filled to capacity with
distinct objects drawn the same way requests are drawn: category from
the local preference, object from the category's rank popularity.
Rejection-sampling with a bounded number of attempts handles small
categories gracefully.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from typing import List

from repro.content.catalog import Catalog
from repro.content.interests import InterestProfile
from repro.content.popularity import PopularityCache
from repro.content.storage import ObjectStore
from repro.content.workload import candidate_rows

#: Draw attempts per placement slot before giving up on filling it; a
#: peer interested only in a 3-object category simply ends up with
#: fewer initial objects than capacity, which is fine.
_MAX_ATTEMPTS_PER_SLOT = 50


def place_objects_for_peer(
    catalog: Catalog,
    profile: InterestProfile,
    store: ObjectStore,
    rand: random.Random,
    object_factor: float,
    popularity_cache: PopularityCache,
) -> List[int]:
    """Fill one peer's store; returns the placed object ids."""
    target = store.capacity
    placed: List[int] = []
    attempts = 0
    budget = target * _MAX_ATTEMPTS_PER_SLOT
    # The request draw of :mod:`repro.content.workload`: two random()
    # calls per candidate, category first.
    rows = candidate_rows(catalog, profile, popularity_cache, object_factor)
    table = profile.cumulative
    draw = rand.random
    while len(store) < target and attempts < budget:
        attempts += 1
        objects, ranks = rows[bisect_right(table, draw())]
        object_id = objects[bisect_left(ranks, draw())].object_id
        if store.add_if_absent(object_id):
            placed.append(object_id)
    return placed

