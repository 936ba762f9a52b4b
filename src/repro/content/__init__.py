"""Content substrate: objects, categories, popularity, storage, workload.

Implements the object-popularity model of Schlosser, Condie & Kamvar
("Simulating a P2P file-sharing network", 2002) that the paper adopts in
Section IV-A: objects live in ranked categories, category and object
popularity follow a rank power law with factor *f*, and each peer has a
private interest profile over a handful of categories.
"""

from repro.content.catalog import Catalog, Category, ContentObject
from repro.content.interests import InterestProfile, build_interest_profile
from repro.content.popularity import RankPopularity
from repro.content.storage import ObjectStore
from repro.content.workload import RequestGenerator

__all__ = [
    "Catalog",
    "Category",
    "ContentObject",
    "InterestProfile",
    "ObjectStore",
    "RankPopularity",
    "RequestGenerator",
    "build_interest_profile",
]
