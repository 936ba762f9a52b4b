"""Fig. 10 — per-class transfer volume vs popularity factor f.

Paper's shape: sharing users move more data than non-sharing users
under exchange mechanisms, with the spread growing as f rises.
"""

from __future__ import annotations

from repro.experiments import run_figure

from conftest import SCALE, SEED, publish, run_once


def test_fig10_volume_vs_popularity(benchmark):
    table = run_once(benchmark, run_figure, "fig10", scale=SCALE, seed=SEED)
    publish(table, "fig10")

    # Shape: at the highest f, sharers receive more volume per peer than
    # free-riders under every exchange mechanism.
    _x, zipf = table.rows[-1]
    for mechanism in ("pairwise", "5-2-way", "2-5-way"):
        sharing = zipf[f"{mechanism}/sharing"]
        non_sharing = zipf[f"{mechanism}/non-sharing"]
        assert sharing is not None and non_sharing is not None
        assert sharing > non_sharing, (
            f"{mechanism}: sharers should move more data per peer "
            f"({sharing:.1f} MB !> {non_sharing:.1f} MB)"
        )

    # Volumes are positive everywhere.
    for column in table.columns:
        assert all(v >= 0 for v in table.column_values(column))
