"""Fig. 6 — mean download time vs maximum exchange ring size N.

Paper's shape: enabling rings beyond pairwise (N=2 -> 3) improves
sharing users' download times noticeably; much larger rings (N > 5)
offer no substantial further improvement.
"""

from __future__ import annotations

from repro.experiments import run_figure

from conftest import SCALE, SEED, publish, run_once


def test_fig6_ring_size(benchmark):
    table = run_once(benchmark, run_figure, "fig6", scale=SCALE, seed=SEED)
    publish(table, "fig6")

    sharing = dict(table.series("2-N-way/sharing"))
    non_sharing = dict(table.series("2-N-way/non-sharing"))
    sizes = sorted(sharing)

    # Shape 1: at every N >= 2, sharers beat free-riders.
    for n in sizes:
        if n >= 2:
            assert sharing[n] < non_sharing[n], (
                f"N={n}: sharing {sharing[n]:.1f} !< non-sharing {non_sharing[n]:.1f}"
            )

    # Shape 2: the differentiation (ratio) does not collapse when rings
    # are enabled relative to the pairwise-only point (N=2).
    ratio = {n: non_sharing[n] / sharing[n] for n in sizes if n >= 2}
    largest = max(ratio)
    assert ratio[largest] >= ratio[2] * 0.85, (
        f"rings (N={largest}, ratio {ratio[largest]:.2f}) should hold or improve "
        f"on pairwise (ratio {ratio[2]:.2f})"
    )
