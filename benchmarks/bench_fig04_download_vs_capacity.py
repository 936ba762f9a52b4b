"""Fig. 4 — mean download time vs upload capacity.

Paper's shape: download times rise as upload capacity falls; sharing
users beat non-sharing users under every exchange mechanism, and the
gap widens as the system gets more loaded.
"""

from __future__ import annotations

from repro.experiments import run_figure

from conftest import SCALE, SEED, publish, run_once


def test_fig4_download_time_vs_capacity(benchmark):
    table = run_once(benchmark, run_figure, "fig4", scale=SCALE, seed=SEED)
    publish(table, "fig4")

    # Shape 1: at the most loaded point (lowest capacity = last row),
    # sharers beat free-riders under every exchange mechanism.
    _x, loaded = table.rows[-1]
    for mechanism in ("pairwise", "5-2-way", "2-5-way"):
        sharing = loaded[f"{mechanism}/sharing"]
        non_sharing = loaded[f"{mechanism}/non-sharing"]
        assert sharing is not None and non_sharing is not None
        assert sharing < non_sharing, (
            f"{mechanism}: sharers ({sharing:.1f} min) must beat "
            f"free-riders ({non_sharing:.1f} min) at high load"
        )

    # Shape 2: download times grow as capacity shrinks (rows are ordered
    # from the highest capacity to the lowest).
    sharing_curve = table.column_values("pairwise/sharing")
    assert sharing_curve[-1] > sharing_curve[0], (
        "less upload capacity must mean slower downloads"
    )

    # Shape 3: the sharer/free-rider gap widens with load.
    _x0, relaxed = table.rows[0]
    gap_relaxed = relaxed["pairwise/non-sharing"] / relaxed["pairwise/sharing"]
    gap_loaded = loaded["pairwise/non-sharing"] / loaded["pairwise/sharing"]
    assert gap_loaded > gap_relaxed * 0.95, (
        f"differentiation should not collapse with load "
        f"({gap_relaxed:.2f} -> {gap_loaded:.2f})"
    )
