"""The benchmark's workloads: one simulation cell each, built from a seed.

Each workload is a batch cell in a closed loop: one simulation built
and run to its configured ``duration``, the next only after the last
finished.  Configs come only from the public preset API (``preset``,
``evolution_config``).  No workload sets ``metrics_backend`` or
``metrics_retention``: both knobs are due to be deleted.

The cells are cut down from the figure presets so that several fit in
one benchmark run (a few seconds each on a 2-core x86 box) while each
keeps the layer profile it was chosen for; ``README.md`` gives the
measured profile of each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: seed -> ``SimulationConfig``; imports the simulator lazily so the
    #: parent process never does.
    config: Callable[[int], Any]
    #: Whether exchange rings must form (False: the exchange layers are
    #: bypassed and must stay idle).
    forms_rings: bool


def _huge3k(seed: int) -> Any:
    from repro.experiments.presets import preset

    return preset("huge", num_peers=3000, exchange_mechanism="2-5-way", seed=seed)


def _scale_exchange(seed: int) -> Any:
    from repro.experiments.presets import preset

    # A sixth of the scale preset's window: the per-peer profile (scans,
    # tree refresh, ring search) is the full window's at a sixth of the
    # time.
    return preset(
        "scale",
        exchange_mechanism="2-5-way",
        duration=2000.0,
        warmup=500.0,
        seed=seed,
    )


def _scale_churn(seed: int) -> Any:
    # Session means are half the window, so most peers go offline and
    # back inside it.
    return _scale_exchange(seed).replace(
        churn_enabled=True,
        churn_mean_online=1000.0,
        churn_mean_offline=1000.0,
    )


def _evolve_credit(seed: int) -> Any:
    import dataclasses

    from repro.experiments.presets import evolution_config

    # The scale cell's time axis shrunk fourfold (window, warmup and the
    # revision schedule alike), keeping its 1000 peers and 14 revision
    # epochs: a 100-peer cell would be as quick but its event count
    # moves ~9% from seed to seed.
    full = evolution_config("scale", "credit", seed)
    spec = full.strategy
    return full.replace(
        duration=full.duration / 4,
        warmup=full.warmup / 4,
        strategy=dataclasses.replace(
            spec,
            start=spec.start / 4,
            revision_period=spec.revision_period / 4,
            window=spec.window / 4,
        ),
    )


#: Why each was chosen is one line in BENCHMARK.json and a section in
#: README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("huge3k", _huge3k, forms_rings=True),
        Workload("scale-exchange", _scale_exchange, forms_rings=True),
        Workload("scale-churn", _scale_churn, forms_rings=True),
        Workload("evolve-credit", _evolve_credit, forms_rings=False),
    )
}
