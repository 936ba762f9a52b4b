"""Per-figure experiment definitions (paper §IV-B, Figs. 4-12).

Every figure of the paper is described by a :class:`FigureSpec`: a
*declarative* grid of independent ``cell key → SimulationConfig`` pairs
plus an ``assemble`` step that folds the per-cell
:class:`~repro.metrics.summary.SimulationSummary` objects into a
:class:`~repro.experiments.report.SeriesTable` whose columns mirror the
figure's legend.  Mean download times are in minutes, volumes in MB,
waiting times in minutes — the paper's units.

Because every cell is an independent simulation, the orchestrator
(:mod:`repro.experiments.orchestrator`) can run a figure's grid — or
all figures' grids — in any order, across a process pool, and against a
result cache, and still assemble tables bit-identical to a serial run:
the cells are deterministic functions of their config (which includes
the seed).

The ``scale`` argument selects a preset from
:mod:`repro.experiments.presets`; ``seed`` feeds the deterministic RNG
so every run is reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.config import SimulationConfig
from repro.experiments.presets import (
    ADVERSARIAL_ATTACKS,
    CAPACITY_TIERS,
    CATEGORY_GRID,
    adoption_population,
    adversarial_config,
    evolution_config,
    flash_crowd_scenario,
    preset,
    swarm_growth_scenario,
    sweep,
    tiered_population,
)
from repro.experiments.report import SeriesTable
from repro.metrics.cdf import EmpiricalCDF
from repro.metrics.summary import SimulationSummary

#: The paper's four mechanisms, in its legend order.
MECHANISMS = ("pairwise", "5-2-way", "2-5-way")
CDF_CLASSES = ("non-exchange", "pairwise", "3-way", "4-way", "5-way")

#: One figure's work: unique cell key → the config that produces it.
CellGrid = Dict[str, SimulationConfig]
#: What ``assemble`` receives: one summary per cell key.
CellSummaries = Mapping[str, SimulationSummary]


@dataclass(frozen=True)
class FigureSpec:
    """Declarative description of one figure's experiment.

    ``build_grid(scale, seed)`` lists every simulation the figure needs;
    ``assemble(scale, seed, summaries)`` turns the finished cells into
    the figure's table.  Keeping the two pure and side-effect-free is
    what lets the orchestrator schedule cells freely.
    """

    figure_id: str
    description: str
    build_grid: Callable[[str, int], CellGrid]
    assemble: Callable[[str, int, CellSummaries], SeriesTable]


def _mechanism_columns() -> List[str]:
    columns: List[str] = []
    for mechanism in MECHANISMS:
        columns.append(f"{mechanism}/sharing")
        columns.append(f"{mechanism}/non-sharing")
    columns.append("no-exchange")
    return columns


def _download_time_row(
    summaries: CellSummaries, key_for: Callable[[str], str]
) -> Dict[str, Optional[float]]:
    """Per-mechanism sharing/non-sharing download times for one x."""
    row: Dict[str, Optional[float]] = {}
    for mechanism in MECHANISMS:
        summary = summaries[key_for(mechanism)]
        row[f"{mechanism}/sharing"] = summary.mean_download_time_sharers_min
        row[f"{mechanism}/non-sharing"] = summary.mean_download_time_freeloaders_min
    row["no-exchange"] = summaries[key_for("none")].mean_download_time_all_min
    return row


# ---------------------------------------------------------------------------
# Fig. 4 / Fig. 5 — sweep over upload capacity
# ---------------------------------------------------------------------------

def _capacity_grid(scale: str, seed: int, mechanisms: Sequence[str]) -> CellGrid:
    grid: CellGrid = {}
    for capacity in sweep("capacity", scale):
        for mechanism in mechanisms:
            grid[f"cap={capacity:g}/{mechanism}"] = preset(
                scale,
                exchange_mechanism=mechanism,
                upload_capacity_kbit=capacity,
                seed=seed,
            )
    return grid


def _fig4_grid(scale: str, seed: int) -> CellGrid:
    return _capacity_grid(scale, seed, MECHANISMS + ("none",))


def _fig4_assemble(scale: str, seed: int, summaries: CellSummaries) -> SeriesTable:
    table = SeriesTable(
        "Fig.4 mean download time (min) vs upload capacity (kbit/s)",
        "upload_kbit",
        _mechanism_columns(),
    )
    for capacity in sweep("capacity", scale):
        row = _download_time_row(summaries, lambda m: f"cap={capacity:g}/{m}")
        table.add_row(capacity, row)
    return table


def _fig5_grid(scale: str, seed: int) -> CellGrid:
    return _capacity_grid(scale, seed, MECHANISMS)


def _fig5_assemble(scale: str, seed: int, summaries: CellSummaries) -> SeriesTable:
    table = SeriesTable(
        "Fig.5 fraction of exchange sessions vs upload capacity (kbit/s)",
        "upload_kbit",
        list(MECHANISMS),
    )
    for capacity in sweep("capacity", scale):
        row: Dict[str, Optional[float]] = {}
        for mechanism in MECHANISMS:
            summary = summaries[f"cap={capacity:g}/{mechanism}"]
            row[mechanism] = summary.exchange_session_fraction
        table.add_row(capacity, row)
    return table


# ---------------------------------------------------------------------------
# Fig. 6 — sweep over the maximum ring size N
# ---------------------------------------------------------------------------

def _fig6_mechanism(family: str, n: int) -> str:
    if n < 2:
        return "none"  # N=1: no feasible ring, the paper's leftmost point
    if n == 2:
        return "pairwise"
    return f"{n}-2-way" if family == "N-2-way" else f"2-{n}-way"


def _fig6_grid(scale: str, seed: int) -> CellGrid:
    grid: CellGrid = {}
    for n in sweep("ring_size", scale):
        for family in ("N-2-way", "2-N-way"):
            grid[f"N={n}/{family}"] = preset(
                scale, exchange_mechanism=_fig6_mechanism(family, n), seed=seed
            )
    return grid


def _fig6_assemble(scale: str, seed: int, summaries: CellSummaries) -> SeriesTable:
    table = SeriesTable(
        "Fig.6 mean download time (min) vs maximum exchange ring size N",
        "max_ring_N",
        [
            "N-2-way/sharing",
            "N-2-way/non-sharing",
            "2-N-way/sharing",
            "2-N-way/non-sharing",
        ],
    )
    for n in sweep("ring_size", scale):
        row: Dict[str, Optional[float]] = {}
        for family in ("N-2-way", "2-N-way"):
            summary = summaries[f"N={n}/{family}"]
            row[f"{family}/sharing"] = summary.mean_download_time_sharers_min
            row[f"{family}/non-sharing"] = summary.mean_download_time_freeloaders_min
        table.add_row(float(n), row)
    return table


# ---------------------------------------------------------------------------
# Fig. 7 / Fig. 8 — per-class CDFs at the base configuration
# ---------------------------------------------------------------------------

def _class_cdf_table(
    title: str,
    x_label: str,
    grid: Sequence[float],
    samples_by_class: Dict[str, List[float]],
) -> SeriesTable:
    table = SeriesTable(title, x_label, list(CDF_CLASSES))
    cdfs = {
        label: EmpiricalCDF(samples)
        for label, samples in samples_by_class.items()
        if samples and label in CDF_CLASSES
    }
    for x in grid:
        table.add_row(
            x, {label: cdf(x) for label, cdf in cdfs.items()}
        )
    return table


def _base_cell_grid(scale: str, seed: int) -> CellGrid:
    return {"base": preset(scale, exchange_mechanism="2-5-way", seed=seed)}


def _fig7_assemble(scale: str, seed: int, summaries: CellSummaries) -> SeriesTable:
    volumes = summaries["base"].session_volume_kb_by_class
    top = max((max(v) for v in volumes.values() if v), default=1.0)
    grid = [top * i / 12.0 for i in range(1, 13)]
    return _class_cdf_table(
        "Fig.7 CDF of per-session volume (kB) by traffic class",
        "volume_kb",
        grid,
        volumes,
    )


def _fig8_assemble(scale: str, seed: int, summaries: CellSummaries) -> SeriesTable:
    waits = summaries["base"].waiting_time_min_by_class
    top = max((max(v) for v in waits.values() if v), default=1.0)
    grid = [top * i / 12.0 for i in range(1, 13)]
    return _class_cdf_table(
        "Fig.8 CDF of session waiting time (min) by traffic class",
        "waiting_min",
        grid,
        waits,
    )


# ---------------------------------------------------------------------------
# Fig. 9 / Fig. 10 — sweep over the popularity factor f
# ---------------------------------------------------------------------------

def _factor_grid(scale: str, seed: int) -> CellGrid:
    grid: CellGrid = {}
    for factor in sweep("factor", scale):
        for mechanism in MECHANISMS + ("none",):
            grid[f"f={factor:g}/{mechanism}"] = preset(
                scale,
                exchange_mechanism=mechanism,
                category_factor=factor,
                object_factor=factor,
                seed=seed,
            )
    return grid


def _fig9_assemble(scale: str, seed: int, summaries: CellSummaries) -> SeriesTable:
    table = SeriesTable(
        "Fig.9 mean download time (min) vs popularity factor f",
        "factor_f",
        _mechanism_columns(),
    )
    for factor in sweep("factor", scale):
        row = _download_time_row(summaries, lambda m: f"f={factor:g}/{m}")
        table.add_row(factor, row)
    return table


def _fig10_assemble(scale: str, seed: int, summaries: CellSummaries) -> SeriesTable:
    table = SeriesTable(
        "Fig.10 transfer volume (MB/peer) vs popularity factor f",
        "factor_f",
        _mechanism_columns(),
    )
    for factor in sweep("factor", scale):
        row: Dict[str, Optional[float]] = {}
        for mechanism in MECHANISMS:
            summary = summaries[f"f={factor:g}/{mechanism}"]
            row[f"{mechanism}/sharing"] = summary.volume_per_sharer_mb
            row[f"{mechanism}/non-sharing"] = summary.volume_per_freeloader_mb
        none_summary = summaries[f"f={factor:g}/none"]
        row["no-exchange"] = (
            none_summary.volume_per_sharer_mb + none_summary.volume_per_freeloader_mb
        ) / 2.0
        table.add_row(factor, row)
    return table


# ---------------------------------------------------------------------------
# Fig. 11 — max outstanding requests x categories per peer
# ---------------------------------------------------------------------------

def _fig11_grid(scale: str, seed: int) -> CellGrid:
    grid: CellGrid = {}
    for max_pending in sweep("pending", scale):
        for categories in CATEGORY_GRID:
            grid[f"pending={max_pending}/cat={categories}"] = preset(
                scale,
                exchange_mechanism="2-5-way",
                max_pending=max_pending,
                categories_per_peer_min=categories,
                categories_per_peer_max=categories,
                # Run in the loaded regime: the ratio Fig. 11 plots
                # only separates from 1 when slots are contended.
                upload_capacity_kbit=40.0,
                seed=seed,
            )
    return grid


def _fig11_assemble(scale: str, seed: int, summaries: CellSummaries) -> SeriesTable:
    table = SeriesTable(
        "Fig.11 download-time ratio (non-sharing / sharing) vs max pending requests",
        "max_pending",
        [f"cat/peer={c}" for c in CATEGORY_GRID],
    )
    for max_pending in sweep("pending", scale):
        row: Dict[str, Optional[float]] = {}
        for categories in CATEGORY_GRID:
            summary = summaries[f"pending={max_pending}/cat={categories}"]
            row[f"cat/peer={categories}"] = summary.speedup_sharers_vs_freeloaders
        table.add_row(float(max_pending), row)
    return table


# ---------------------------------------------------------------------------
# Fig. 12 — sweep over the fraction of non-sharing peers
# ---------------------------------------------------------------------------

def _fig12_grid(scale: str, seed: int) -> CellGrid:
    grid: CellGrid = {}
    for fraction in sweep("freeloader", scale):
        for mechanism in MECHANISMS + ("none",):
            grid[f"fl={fraction:g}/{mechanism}"] = preset(
                scale,
                exchange_mechanism=mechanism,
                freeloader_fraction=fraction,
                seed=seed,
            )
    return grid


def _fig12_assemble(scale: str, seed: int, summaries: CellSummaries) -> SeriesTable:
    table = SeriesTable(
        "Fig.12 mean download time (min) vs fraction of non-sharing peers",
        "freeloader_fraction",
        _mechanism_columns(),
    )
    for fraction in sweep("freeloader", scale):
        row = _download_time_row(summaries, lambda m: f"fl={fraction:g}/{m}")
        table.add_row(fraction, row)
    return table


# ---------------------------------------------------------------------------
# Adoption sweep — fraction of sharers running the exchange mechanism
# ---------------------------------------------------------------------------

ADOPTION_CLASSES = ("adopter", "holdout", "freeloader")


def _adoption_grid(scale: str, seed: int) -> CellGrid:
    grid: CellGrid = {}
    for adoption in sweep("adoption", scale):
        grid[f"adopt={adoption:g}"] = preset(
            scale, population=adoption_population(adoption), seed=seed
        )
    return grid


def _adoption_assemble(scale: str, seed: int, summaries: CellSummaries) -> SeriesTable:
    table = SeriesTable(
        "Adoption sweep: mean download time (min) per class vs "
        "fraction of sharers running exchanges",
        "adoption",
        list(ADOPTION_CLASSES),
    )
    for adoption in sweep("adoption", scale):
        summary = summaries[f"adopt={adoption:g}"]
        table.add_row(
            adoption,
            {
                label: summary.mean_download_time_min_by_class.get(label)
                for label in ADOPTION_CLASSES
            },
        )
    return table


# ---------------------------------------------------------------------------
# Capacity tiers — broadband / DSL / modem sharer classes
# ---------------------------------------------------------------------------

TIER_MECHANISMS = ("2-5-way", "none")


def _tiers_grid(scale: str, seed: int) -> CellGrid:
    return {
        f"tiers/{mechanism}": preset(
            scale, population=tiered_population(mechanism), seed=seed
        )
        for mechanism in TIER_MECHANISMS
    }


def _tiers_assemble(scale: str, seed: int, summaries: CellSummaries) -> SeriesTable:
    table = SeriesTable(
        "Capacity tiers: mean download time (min) per class vs tier "
        "uplink (kbit/s); the x=0 row is the freeloader class",
        "tier_uplink_kbit",
        list(TIER_MECHANISMS),
    )
    rows = [(up, name) for name, (up, _down) in CAPACITY_TIERS.items()]
    rows.append((0.0, "freeloader"))
    for x, label in sorted(rows, reverse=True):
        table.add_row(
            x,
            {
                mechanism: summaries[
                    f"tiers/{mechanism}"
                ].mean_download_time_min_by_class.get(label)
                for mechanism in TIER_MECHANISMS
            },
        )
    return table


# ---------------------------------------------------------------------------
# Scenario timelines — flash crowd and swarm growth (open-system dynamics)
# ---------------------------------------------------------------------------

SCENARIO_MECHANISMS = ("2-5-way", "none")


def _scenario_grid(scale: str, seed: int, scenario_fn) -> CellGrid:
    grid: CellGrid = {}
    for mechanism in SCENARIO_MECHANISMS:
        base = preset(scale, exchange_mechanism=mechanism, seed=seed)
        grid[mechanism] = base.replace(scenario=scenario_fn(base))
    return grid


def _scenario_assemble(
    title: str, phases: Sequence[str], summaries: CellSummaries
) -> SeriesTable:
    """Per-phase download time and completion counts, one row per phase."""
    columns: List[str] = []
    for mechanism in SCENARIO_MECHANISMS:
        columns.append(f"{mechanism}/time")
        columns.append(f"{mechanism}/completed")
    table = SeriesTable(title, "phase_index", columns)
    for index, phase in enumerate(phases):
        row: Dict[str, Optional[float]] = {}
        for mechanism in SCENARIO_MECHANISMS:
            summary = summaries[mechanism]
            row[f"{mechanism}/time"] = summary.mean_download_time_min_by_phase.get(
                phase
            )
            row[f"{mechanism}/completed"] = float(
                summary.completed_downloads_by_phase.get(phase, 0)
            )
        table.add_row(float(index), row)
    return table


def _flashcrowd_grid(scale: str, seed: int) -> CellGrid:
    return _scenario_grid(scale, seed, flash_crowd_scenario)


def _flashcrowd_assemble(
    scale: str, seed: int, summaries: CellSummaries
) -> SeriesTable:
    return _scenario_assemble(
        "Flash crowd: mean download time (min) and completions per phase "
        "(0=steady, 1=flash, 2=decay)",
        ("steady", "flash", "decay"),
        summaries,
    )


def _swarm_growth_grid(scale: str, seed: int) -> CellGrid:
    return _scenario_grid(scale, seed, swarm_growth_scenario)


def _swarm_growth_assemble(
    scale: str, seed: int, summaries: CellSummaries
) -> SeriesTable:
    return _scenario_assemble(
        "Swarm growth: mean download time (min) and completions per phase "
        "(0=seed population, 1/2=arrival waves, +50% peers total)",
        ("seed", "wave1", "wave2"),
        summaries,
    )


# ---------------------------------------------------------------------------
# Evolution — adaptive strategy dynamics under each incentive mechanism
# ---------------------------------------------------------------------------

#: Legend order of the ``evolution`` figure's columns (weakest incentive
#: first — the qualitative equilibrium ordering of the related work is
#: that sharing rises left to right).
EVOLUTION_MECHANISMS = ("none", "credit", "participation", "exchange")


def _evolution_grid(scale: str, seed: int) -> CellGrid:
    return {
        mechanism: evolution_config(scale, mechanism, seed)
        for mechanism in EVOLUTION_MECHANISMS
    }


def _evolution_assemble(scale: str, seed: int, summaries: CellSummaries) -> SeriesTable:
    """Sharing-fraction trajectories, one row per revision epoch.

    Every cell runs the same revision cadence, so epoch indices align
    across mechanisms.  The expected qualitative picture (related work:
    Salek et al., Buragohain et al.; seed-pinned at the default seed)
    is equilibrium sharing ordered ``exchange >= participation >=
    credit >= none`` — the no-incentive and weak credit populations
    collapse toward free-riding while honest participation and exchange
    priority sustain sharing.  Individual trajectories are strongly
    path-dependent (equilibrium selection under noisy best response),
    so other seeds may settle elsewhere; the ordering claim is about
    the default-seed preset the test pins.
    """
    table = SeriesTable(
        "Evolution: population sharing fraction per strategy-revision epoch "
        "(best response; columns = incentive mechanism)",
        "epoch",
        list(EVOLUTION_MECHANISMS),
    )
    series = {
        mechanism: summaries[mechanism].sharing_fraction_by_epoch
        for mechanism in EVOLUTION_MECHANISMS
    }
    epochs = max((len(points) for points in series.values()), default=0)
    for index in range(epochs):
        row: Dict[str, Optional[float]] = {}
        for mechanism in EVOLUTION_MECHANISMS:
            points = series[mechanism]
            row[mechanism] = points[index][1] if index < len(points) else None
        table.add_row(float(index + 1), row)
    return table


# ---------------------------------------------------------------------------
# Robustness — incentive mechanisms under adversarial populations (§V)
# ---------------------------------------------------------------------------

#: Column order of the ``robustness`` figure: most structurally robust
#: mechanism first (the paper's thesis — exchanges pay only for
#: simultaneous reciprocity, so laundered standing buys nothing).
ROBUSTNESS_MECHANISMS = ("exchange", "participation", "credit")


def honest_mean_download_time(summary: SimulationSummary) -> Optional[float]:
    """Mean download time (min) of the honest sharer+freeloader crowd.

    Computed from the per-class breakdown (completion-weighted), NOT
    from the summary's adversary split: the ``none`` baseline cells
    carry no adversary metrics, and the degradation ratio needs the
    *same* population slice in the numerator and the denominator.
    """
    total = 0.0
    completed = 0
    for label in ("sharer", "freeloader"):
        count = summary.completed_downloads_by_class.get(label, 0)
        mean = summary.mean_download_time_min_by_class.get(label)
        if count and mean is not None:
            total += mean * count
            completed += count
    return total / completed if completed else None


def _robustness_grid(scale: str, seed: int) -> CellGrid:
    return {
        f"{attack}/{mechanism}": adversarial_config(scale, mechanism, attack, seed)
        for attack in ADVERSARIAL_ATTACKS
        for mechanism in ROBUSTNESS_MECHANISMS
    }


def _robustness_assemble(
    scale: str, seed: int, summaries: CellSummaries
) -> SeriesTable:
    """One row per attack: honest download time and degradation ratio.

    ``degradation`` is the honest crowd's mean download time under the
    attack divided by the same quantity in that mechanism's ``none``
    baseline cell — 1.0 means the attack cost honest peers nothing.
    The seed-pinned ordering test asserts the paper's §V ranking on the
    whitewash row: exchange ≤ participation ≤ credit.
    """
    columns: List[str] = []
    for mechanism in ROBUSTNESS_MECHANISMS:
        columns.append(f"{mechanism}/honest_time")
        columns.append(f"{mechanism}/degradation")
    table = SeriesTable(
        "Robustness: honest-peer mean download time (min) and degradation "
        "vs the no-attack baseline, per incentive mechanism "
        "(rows: 0=none, 1=whitewash, 2=sybil, 3=collusion)",
        "attack_index",
        columns,
    )
    baselines = {
        mechanism: honest_mean_download_time(summaries[f"none/{mechanism}"])
        for mechanism in ROBUSTNESS_MECHANISMS
    }
    for index, attack in enumerate(ADVERSARIAL_ATTACKS):
        row: Dict[str, Optional[float]] = {}
        for mechanism in ROBUSTNESS_MECHANISMS:
            honest = honest_mean_download_time(summaries[f"{attack}/{mechanism}"])
            baseline = baselines[mechanism]
            row[f"{mechanism}/honest_time"] = honest
            row[f"{mechanism}/degradation"] = (
                honest / baseline
                if honest is not None and baseline
                else None
            )
        table.add_row(float(index), row)
    return table


#: Registry used by the orchestrator, the CLI runner and the benchmarks.
FIGURES: Dict[str, FigureSpec] = {
    spec.figure_id: spec
    for spec in (
        FigureSpec("fig4", "mean download time vs upload capacity",
                   _fig4_grid, _fig4_assemble),
        FigureSpec("fig5", "fraction of exchange sessions vs upload capacity",
                   _fig5_grid, _fig5_assemble),
        FigureSpec("fig6", "download time vs max ring size N",
                   _fig6_grid, _fig6_assemble),
        FigureSpec("fig7", "CDF of per-session volume by traffic class",
                   _base_cell_grid, _fig7_assemble),
        FigureSpec("fig8", "CDF of session waiting time by traffic class",
                   _base_cell_grid, _fig8_assemble),
        FigureSpec("fig9", "mean download time vs popularity factor",
                   _factor_grid, _fig9_assemble),
        FigureSpec("fig10", "transfer volume vs popularity factor",
                   _factor_grid, _fig10_assemble),
        FigureSpec("fig11", "download-time ratio vs max pending requests",
                   _fig11_grid, _fig11_assemble),
        FigureSpec("fig12", "mean download time vs freeloader fraction",
                   _fig12_grid, _fig12_assemble),
        FigureSpec("adoption", "per-class download time vs exchange adoption",
                   _adoption_grid, _adoption_assemble),
        FigureSpec("tiers", "per-class download time across capacity tiers",
                   _tiers_grid, _tiers_assemble),
        FigureSpec("flashcrowd", "per-phase download time under a flash crowd",
                   _flashcrowd_grid, _flashcrowd_assemble),
        FigureSpec("swarm-growth", "per-phase download time as the swarm grows",
                   _swarm_growth_grid, _swarm_growth_assemble),
        FigureSpec("evolution", "sharing-fraction dynamics per incentive mechanism",
                   _evolution_grid, _evolution_assemble),
        FigureSpec("robustness", "honest-peer degradation per mechanism x attack",
                   _robustness_grid, _robustness_assemble),
    )
}
