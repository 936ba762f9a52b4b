"""A config that validates also runs.

Eager validation is the contract: :class:`SimulationConfig` either
raises :class:`ConfigError` at construction, or the simulation it
describes runs to the end.  This property draws tiny worlds with a few
scenario arrivals and capacity changes whose inputs may be unusable
(capacities below one slot or non-finite, ranges that invert once
inherited from the config, float wave sizes) and checks that no such input gets past the
constructor to fail mid-run.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro import SimulationConfig, run_simulation
from repro.errors import ConfigError
from repro.population import PeerClassSpec
from repro.scenario import CapacityChange, PeerArrival

#: An 8-peer world that runs in tens of milliseconds.
TINY = dict(
    num_peers=8,
    num_categories=6,
    objects_per_category_max=6,
    object_size_mb=1.0,
    block_size_kbit=1024.0,
    storage_min_objects=2,
    storage_max_objects=4,
    duration=2000.0,
    warmup=500.0,
)

#: Unset, valid, below one 10 kbit slot, and non-finite.
CAPACITIES = st.sampled_from([None, 80.0, 160.0, 5.0, math.nan, math.inf, -math.inf])
#: Values that can invert a range, alone or against the inherited bound
#: (storage 2..4 and categories 1..8 in TINY).
RANGE_ENDS = st.sampled_from([None, 0, 1, 3, 9])
SPEC_FIELDS = {
    "upload_capacity_kbit": CAPACITIES,
    "download_capacity_kbit": CAPACITIES,
    "storage_min_objects": RANGE_ENDS,
    "storage_max_objects": RANGE_ENDS,
    "categories_per_peer_min": RANGE_ENDS,
    "categories_per_peer_max": RANGE_ENDS,
}
TIMES = st.sampled_from([0.0, 100.0, 700.0, 1500.0])
#: Arrival wave sizes: integers, and floats that pass a ``>= 1`` check.
COUNTS = st.sampled_from([1, 2, 3, 1.5, 2.0])
#: Arrival class names; capacity changes may also target "sharer".
NAMES = ("x", "y")


@st.composite
def arrivals(draw):
    # Up to two fields set, the rest inherited, so that about half the
    # specs resolve and the run half of the property is exercised too.
    fields = draw(st.lists(st.sampled_from(sorted(SPEC_FIELDS)), max_size=2, unique=True))
    spec = PeerClassSpec(
        name=draw(st.sampled_from(NAMES)),
        behavior=draw(st.sampled_from(["sharer", "freeloader"])),
        **{name: draw(SPEC_FIELDS[name]) for name in fields},
    )
    return PeerArrival(draw(TIMES), count=draw(COUNTS), spec=spec)


@st.composite
def capacity_changes(draw):
    return CapacityChange(
        draw(TIMES),
        draw(st.sampled_from(("sharer",) + NAMES)),
        upload_capacity_kbit=draw(CAPACITIES),
        download_capacity_kbit=draw(CAPACITIES),
    )


@settings(max_examples=60, deadline=None)
@given(events=st.lists(st.one_of(arrivals(), capacity_changes()), min_size=1, max_size=3))
def test_a_config_that_validates_also_runs(events):
    try:
        config = SimulationConfig(scenario=tuple(events), **TINY)
    except ConfigError:
        return
    run_simulation(config)
