"""Fig. 7 — CDF of per-session transferred volume by traffic class.

Paper's shape: exchange sessions carry more bytes than non-exchange
sessions (normal sessions get preempted and replaced); among exchanges,
shorter rings carry more per session than longer rings (a larger ring
breaks sooner because any member completing drops the exchange).
"""

from __future__ import annotations

from repro.experiments import run_figure

from conftest import SCALE, SEED, publish, run_once


def test_fig7_session_volume_cdf(benchmark):
    table = run_once(benchmark, run_figure, "fig7", scale=SCALE, seed=SEED)
    publish(table, "fig7")

    # Shape: non-exchange sessions are the small ones — they get
    # preempted and replaced, so their CDF carries more mass in the
    # low-volume region (the paper's Fig. 7 signature).  The smallest
    # grid point is the robust comparison at every scale.
    _x, first_row = table.rows[0]
    non_exchange = first_row["non-exchange"]
    pairwise = first_row["pairwise"]
    assert non_exchange is not None and pairwise is not None
    assert non_exchange > pairwise, (
        f"non-exchange sessions should be smaller: CDF at the lowest "
        f"volume bin {non_exchange:.3f} !> {pairwise:.3f}"
    )

    # All CDFs are monotone and end at 1 for the max-volume row.
    for column in table.columns:
        values = table.column_values(column)
        if not values:
            continue  # a class may not occur at smoke scale
        assert values == sorted(values)
        assert values[-1] >= 0.99
