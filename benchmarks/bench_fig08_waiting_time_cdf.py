"""Fig. 8 — CDF of session waiting times by traffic class.

Paper's shape: waiting times for non-exchange transfers are
substantially worse than for exchange transfers (absolute priority for
exchanges); higher-order exchanges wait only slightly longer than
pairwise ones.
"""

from __future__ import annotations

from repro.experiments import run_figure

from conftest import SCALE, SEED, publish, run_once


def _mean_cdf(table, column):
    values = table.column_values(column)
    return sum(values) / len(values) if values else None


def test_fig8_waiting_time_cdf(benchmark):
    table = run_once(benchmark, run_figure, "fig8", scale=SCALE, seed=SEED)
    publish(table, "fig8")

    # Higher mean CDF = mass at smaller waits = faster service.
    pairwise = _mean_cdf(table, "pairwise")
    non_exchange = _mean_cdf(table, "non-exchange")
    assert pairwise is not None and non_exchange is not None
    assert pairwise > non_exchange, (
        "exchange sessions must start sooner than non-exchange sessions "
        f"(mean CDF {pairwise:.3f} !> {non_exchange:.3f})"
    )

    for column in table.columns:
        values = table.column_values(column)
        if values:
            assert values == sorted(values)
