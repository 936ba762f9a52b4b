"""Trajectory pins for the cells whose population changes mid-run.

Each cell exercises a path that reads or changes the peer registry
while the run is going: flash-crowd seeding (online sharers), arrival
waves (spawned peers and their class tallies), whitewash retirement and
re-entry, sybil spawns, and a churned timeline whose mechanism ramp,
capacity change and class-filtered departure pick peers by class while
peers flip online and offline.  ``(events_fired, summary sha256)`` and
the order of ``class_sizes`` keys pin what those reads returned.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.experiments.presets import (
    adversarial_config,
    flash_crowd_scenario,
    preset,
    swarm_growth_scenario,
)
from repro.scenario import (
    CapacityChange,
    DemandShift,
    MechanismRamp,
    PeerDeparture,
    Phase,
)
from repro.simulation import FileSharingSimulation


def _scenario_cell(build_scenario):
    base = preset("smoke", exchange_mechanism="2-5-way", seed=42)
    return base.replace(scenario=build_scenario(base))


def _churned_timeline_cell():
    base = preset(
        "smoke",
        exchange_mechanism="2-5-way",
        seed=7,
        churn_enabled=True,
        churn_mean_online=3000.0,
        churn_mean_offline=600.0,
    )
    return base.replace(
        scenario=(
            Phase(0.0, "a"),
            MechanismRamp(8000.0, "sharer", "pairwise"),
            CapacityChange(9000.0, "freeloader", upload_capacity_kbit=40.0),
            DemandShift(10000.0, 0.3),
            PeerDeparture(12000.0, 5, class_name="sharer"),
        )
    )


#: cell name -> (config factory, events_fired, summary sha256, class_sizes items).
PINS = {
    "flashcrowd": (
        lambda: _scenario_cell(flash_crowd_scenario),
        68379,
        "950aaf2c56f9e924bdf6b16c2d6690b5ddda970ab2090dc3838f4e379a6d6470",
        [("sharer", 20), ("freeloader", 16)],
    ),
    "swarm-growth": (
        lambda: _scenario_cell(swarm_growth_scenario),
        81378,
        "4b7cb1949a62e005dba6af28faefc04ade2bf12b40f0c0dff038060cbbe3029c",
        [("sharer", 30), ("freeloader", 30)],
    ),
    "whitewash": (
        lambda: adversarial_config("adversarial", "exchange", "whitewash", 42),
        53249,
        "20716db1df9f2e9a8d11087d0f1c61eadac7cc4ad5fc22258367863fac979672",
        [("sharer", 20), ("freeloader", 12), ("adversary", 8)],
    ),
    "sybil": (
        lambda: adversarial_config("adversarial", "credit", "sybil", 42),
        54419,
        "4f06d8c0fd23a9972f6343d4fedac5bbdc4bc06ddd028702fef3de20bf3b5281",
        [("sharer", 20), ("freeloader", 12), ("adversary", 16)],
    ),
    "churned-timeline": (
        _churned_timeline_cell,
        50851,
        "248dc9d1c6a1d90ed2cba2d89407622748dc38295d7b4e967fe2506b83b77350",
        [("sharer", 15), ("freeloader", 20)],
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_population_changing_cell_pinned(name):
    make_config, events_fired, digest, class_sizes = PINS[name]
    result = FileSharingSimulation(make_config()).run()
    summary = result.summary
    text = json.dumps(dataclasses.asdict(summary), sort_keys=True)
    assert (result.events_fired, hashlib.sha256(text.encode()).hexdigest()) == (
        events_fired,
        digest,
    )
    assert list(summary.class_sizes.items()) == class_sizes
