"""Fig. 12 — mean download times vs fraction of non-sharing peers.

Paper's shape: the download-time gap between sharing and non-sharing
users persists regardless of the fraction of non-sharing peers.
"""

from __future__ import annotations

from repro.experiments import run_figure

from conftest import SCALE, SEED, publish, run_once


def test_fig12_freeloader_fraction(benchmark):
    table = run_once(benchmark, run_figure, "fig12", scale=SCALE, seed=SEED)
    publish(table, "fig12")

    # Shape: at every freeloader fraction, sharers beat free-riders
    # under the exchange mechanisms.
    for x, row in table.rows:
        for mechanism in ("pairwise", "2-5-way"):
            sharing = row[f"{mechanism}/sharing"]
            non_sharing = row[f"{mechanism}/non-sharing"]
            assert sharing is not None and non_sharing is not None
            assert sharing < non_sharing, (
                f"{mechanism} at freeloader fraction {x}: "
                f"{sharing:.1f} !< {non_sharing:.1f}"
            )
