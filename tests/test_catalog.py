"""Unit tests for the content catalog."""

from __future__ import annotations

import pytest

from repro.content.catalog import Catalog, Category, ContentObject
from repro.errors import ConfigError
from repro.sim.rng import RandomSource

from tests.helpers import tiny_catalog


class TestContentObject:
    def test_rejects_non_positive_size(self):
        with pytest.raises(ConfigError):
            ContentObject(object_id=0, category_id=0, rank=1, size_kbit=0.0)

    def test_is_frozen(self):
        obj = ContentObject(object_id=0, category_id=0, rank=1, size_kbit=10.0)
        with pytest.raises(AttributeError):
            obj.size_kbit = 20.0


class TestCatalogConstruction:
    def test_object_lookup(self):
        catalog = tiny_catalog(num_categories=2, objects_per_category=3)
        obj = catalog.object(4)
        assert obj.object_id == 4
        assert obj.category_id == 1

    def test_counts(self):
        catalog = tiny_catalog(num_categories=2, objects_per_category=3)
        assert catalog.num_categories == 2
        assert catalog.num_objects == 6

    def test_every_category_object_is_found_by_id(self):
        catalog = tiny_catalog(num_categories=3, objects_per_category=4)
        objects = [o for c in catalog.categories for o in c.objects]
        assert len(objects) == catalog.num_objects
        assert all(catalog.object(o.object_id) is o for o in objects)

    def test_rejects_empty_catalog(self):
        with pytest.raises(ConfigError):
            Catalog([])

    def test_rejects_empty_category(self):
        with pytest.raises(ConfigError):
            Catalog([Category(category_id=0, rank=1, objects=())])

    def test_rejects_duplicate_object_ids(self):
        obj = ContentObject(object_id=0, category_id=0, rank=1, size_kbit=1.0)
        dup = ContentObject(object_id=0, category_id=1, rank=1, size_kbit=1.0)
        with pytest.raises(ConfigError):
            Catalog(
                [
                    Category(category_id=0, rank=1, objects=(obj,)),
                    Category(category_id=1, rank=2, objects=(dup,)),
                ]
            )


class TestCatalogBuild:
    def test_build_respects_counts(self):
        catalog = Catalog.build(
            RandomSource(5),
            num_categories=10,
            objects_per_category_min=2,
            objects_per_category_max=6,
            object_size_kbit=100.0,
        )
        assert catalog.num_categories == 10
        for category in catalog.categories:
            assert 2 <= category.size <= 6
            for obj in category.objects:
                assert obj.size_kbit == 100.0

    def test_build_ids_dense_and_unique(self):
        catalog = Catalog.build(
            RandomSource(5),
            num_categories=5,
            objects_per_category_min=1,
            objects_per_category_max=4,
            object_size_kbit=1.0,
        )
        ids = sorted(o.object_id for c in catalog.categories for o in c.objects)
        assert ids == list(range(catalog.num_objects))

    def test_build_ranks_start_at_one(self):
        catalog = Catalog.build(
            RandomSource(5),
            num_categories=3,
            objects_per_category_min=3,
            objects_per_category_max=3,
            object_size_kbit=1.0,
        )
        for category in catalog.categories:
            assert [o.rank for o in category.objects] == [1, 2, 3]

    def test_build_deterministic(self):
        def build():
            return Catalog.build(
                RandomSource(9),
                num_categories=8,
                objects_per_category_min=1,
                objects_per_category_max=20,
                object_size_kbit=1.0,
            )

        assert [c.size for c in build().categories] == [c.size for c in build().categories]

    def test_build_draws_category_sizes_from_the_catalog_stream(self):
        catalog = Catalog.build(RandomSource(9), 8, 1, 20, 1.0)
        stream = RandomSource(9).stream("catalog")
        assert [c.size for c in catalog.categories] == [stream.randint(1, 20) for _ in range(8)]

    def test_build_ignores_draws_on_other_streams(self):
        busy = RandomSource(9)
        for name in ("peer-storage", "peer-categories", "behavior"):
            for _ in range(50):
                busy.stream(name).random()
        sizes = [c.size for c in Catalog.build(busy, 8, 1, 20, 1.0).categories]
        fresh = [c.size for c in Catalog.build(RandomSource(9), 8, 1, 20, 1.0).categories]
        assert sizes == fresh

    def test_build_rejects_bad_ranges(self):
        with pytest.raises(ConfigError):
            Catalog.build(RandomSource(1), 0, 1, 2, 1.0)
        with pytest.raises(ConfigError):
            Catalog.build(RandomSource(1), 3, 0, 2, 1.0)
        with pytest.raises(ConfigError):
            Catalog.build(RandomSource(1), 3, 5, 2, 1.0)
