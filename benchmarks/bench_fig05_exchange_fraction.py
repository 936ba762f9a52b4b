"""Fig. 5 — fraction of exchange sessions vs upload capacity.

Paper's shape: the exchange fraction increases roughly linearly as
upload capacity drops (load rises), and all three mechanisms track
each other closely (pairwise slightly below the ring variants).
"""

from __future__ import annotations

from repro.experiments import run_figure

from conftest import SCALE, SEED, publish, run_once


def test_fig5_exchange_fraction(benchmark):
    table = run_once(benchmark, run_figure, "fig5", scale=SCALE, seed=SEED)
    publish(table, "fig5")

    for mechanism in ("pairwise", "5-2-way", "2-5-way"):
        curve = table.column_values(mechanism)
        assert len(curve) == len(table.rows)
        # Shape 1: exchanges happen at every load level.
        assert all(value > 0.0 for value in curve)
        # Shape 2: the most loaded point has a (weakly) higher exchange
        # fraction than the least loaded point.
        assert curve[-1] >= curve[0] * 0.9, (
            f"{mechanism}: exchange fraction should grow with load "
            f"({curve[0]:.3f} -> {curve[-1]:.3f})"
        )

    # Shape 3: ring mechanisms reach at least the pairwise fraction
    # (they can form everything pairwise can, and more).
    _x, last = table.rows[-1]
    assert last["5-2-way"] >= last["pairwise"] * 0.9
    assert last["2-5-way"] >= last["pairwise"] * 0.9
