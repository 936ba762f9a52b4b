"""Object and category catalog.

The catalog is the global universe of content: categories ranked 1..C,
each holding a random number of objects ranked 1..n_c.  The paper's
model is a fixed library built once per simulation from the seeded RNG;
the scenario extension adds exactly one mutation,
:meth:`Catalog.inject_object`, so flash-crowd timelines can introduce
new hot content mid-run.  Object ids are append-only and never reused,
and existing :class:`ContentObject` instances are never replaced, so
references held by in-flight downloads stay valid across injections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import ConfigError
from repro.sim.rng import RandomSource


@dataclass(frozen=True)
class ContentObject:
    """A single shareable object (a "file").

    ``rank`` is the object's popularity rank *within its category*
    (1 = most popular); ``size_kbit`` is the full object size.  The
    paper fixes all objects at 20 MB; we keep per-object sizes so the
    partial-transfer machinery is exercised realistically and the
    heterogeneous-size extension needs no schema change.
    """

    object_id: int
    category_id: int
    rank: int
    size_kbit: float

    def __post_init__(self) -> None:
        if self.size_kbit <= 0:
            raise ConfigError(
                f"object {self.object_id} has non-positive size {self.size_kbit}"
            )


@dataclass(frozen=True)
class Category:
    """A ranked content category holding a tuple of objects."""

    category_id: int
    rank: int
    objects: Tuple[ContentObject, ...] = field(default=())

    @property
    def size(self) -> int:
        """Number of objects in the category."""
        return len(self.objects)


class Catalog:
    """The immutable universe of categories and objects."""

    def __init__(self, categories: List[Category]) -> None:
        if not categories:
            raise ConfigError("catalog needs at least one category")
        self.categories: Tuple[Category, ...] = tuple(categories)
        self._objects: Dict[int, ContentObject] = {}
        for category in self.categories:
            if not category.objects:
                raise ConfigError(f"category {category.category_id} has no objects")
            for obj in category.objects:
                if obj.object_id in self._objects:
                    raise ConfigError(f"duplicate object id {obj.object_id}")
                self._objects[obj.object_id] = obj
        self._next_object_id = max(self._objects) + 1

    # ------------------------------------------------------------------
    @property
    def num_categories(self) -> int:
        """Number of content categories."""
        return len(self.categories)

    @property
    def num_objects(self) -> int:
        """Total objects across all categories (injections included)."""
        return len(self._objects)

    def object(self, object_id: int) -> ContentObject:
        """Look up an object by id; KeyError on unknown ids is a bug upstream."""
        return self._objects[object_id]

    def category(self, category_id: int) -> Category:
        """Look up a category by id; IndexError on unknown ids is a bug."""
        return self.categories[category_id]

    # ------------------------------------------------------------------
    def inject_object(
        self, category_id: int, size_kbit: float, position: int = 0
    ) -> ContentObject:
        """Add a new object to a category mid-run (flash-crowd scenarios).

        The object is inserted at ``position`` in the category's rank
        order (0 = most popular), so within-category popularity
        re-ranks instantly: request draws are positional, and every
        workload's next draw over this category sees the new ordering.
        The ``rank`` fields of the displaced objects are *not* rewritten
        — they are frozen metadata recording the build-time rank, while
        position in ``Category.objects`` is what popularity sampling
        actually uses.
        """
        if not 0 <= category_id < len(self.categories):
            raise ConfigError(
                f"category {category_id} outside [0, {len(self.categories)})"
            )
        category = self.categories[category_id]
        position = max(0, min(position, category.size))
        obj = ContentObject(
            object_id=self._next_object_id,
            category_id=category_id,
            rank=position + 1,
            size_kbit=size_kbit,
        )
        self._next_object_id += 1
        self._objects[obj.object_id] = obj
        objects = (
            category.objects[:position] + (obj,) + category.objects[position:]
        )
        replacement = Category(
            category_id=category.category_id, rank=category.rank, objects=objects
        )
        self.categories = (
            self.categories[:category_id]
            + (replacement,)
            + self.categories[category_id + 1:]
        )
        return obj

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        rng: RandomSource,
        num_categories: int,
        objects_per_category_min: int,
        objects_per_category_max: int,
        object_size_kbit: float,
    ) -> "Catalog":
        """Build a catalog per the paper's Table II.

        Category ``i`` (0-based id) has popularity rank ``i + 1`` and a
        uniform(min, max) number of objects, each of ``object_size_kbit``.
        """
        if num_categories <= 0:
            raise ConfigError(f"num_categories must be positive, got {num_categories}")
        if objects_per_category_min <= 0:
            raise ConfigError(
                f"objects_per_category_min must be positive, got {objects_per_category_min}"
            )
        if objects_per_category_max < objects_per_category_min:
            raise ConfigError(
                "objects_per_category range reversed: "
                f"[{objects_per_category_min}, {objects_per_category_max}]"
            )
        rand = rng.stream("catalog")
        categories: List[Category] = []
        next_object_id = 0
        for category_id in range(num_categories):
            count = rand.randint(objects_per_category_min, objects_per_category_max)
            objects = []
            for rank in range(1, count + 1):
                objects.append(
                    ContentObject(
                        object_id=next_object_id,
                        category_id=category_id,
                        rank=rank,
                        size_kbit=object_size_kbit,
                    )
                )
                next_object_id += 1
            categories.append(
                Category(category_id=category_id, rank=category_id + 1, objects=tuple(objects))
            )
        return cls(categories)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Catalog(categories={self.num_categories}, objects={self.num_objects})"
