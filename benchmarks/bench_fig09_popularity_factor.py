"""Fig. 9 — mean download time vs popularity factor f.

Paper's shape: the gap between sharing and non-sharing users widens as
f approaches 1 (zipf-like popularity), and the relative benefit remains
visible even at evenly-spread popularity.
"""

from __future__ import annotations

from repro.experiments import run_figure

from conftest import SCALE, SEED, publish, run_once


def test_fig9_popularity_factor(benchmark):
    table = run_once(benchmark, run_figure, "fig9", scale=SCALE, seed=SEED)
    publish(table, "fig9")

    def ratio(row, mechanism):
        return row[f"{mechanism}/non-sharing"] / row[f"{mechanism}/sharing"]

    _x0, flat = table.rows[0]  # f = 0 (uniform popularity)
    _x1, zipf = table.rows[-1]  # highest f in the grid

    # Shape 1: sharers win at the zipf end under every mechanism.
    for mechanism in ("pairwise", "5-2-way", "2-5-way"):
        assert ratio(zipf, mechanism) > 1.0

    # Shape 2: differentiation grows (or at least holds) with f.
    assert ratio(zipf, "2-5-way") >= ratio(flat, "2-5-way") * 0.95, (
        f"zipf-like popularity should increase differentiation "
        f"({ratio(flat, '2-5-way'):.2f} -> {ratio(zipf, '2-5-way'):.2f})"
    )
