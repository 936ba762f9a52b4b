"""ASCII series tables shaped like the paper's plots.

A :class:`SeriesTable` is one figure's worth of data: an x column plus
one column per series (e.g. ``pairwise/sharing``), rendered as an
aligned text table — the same rows a gnuplot datafile for the paper's
figures would contain.

Multi-seed replication (``--reps``) layers on top: each cell may carry a
standard error next to its mean, rendered as ``12.34±0.56``, and
:func:`aggregate_tables` folds N single-seed tables into one
mean ± stderr table.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import MetricsError

Row = Tuple[float, Dict[str, Optional[float]]]


class SeriesTable:
    """x → {series name → value} with aligned text rendering."""

    def __init__(self, title: str, x_label: str, columns: Sequence[str]) -> None:
        self.title = title
        self.x_label = x_label
        self.columns = list(columns)
        self.rows: List[Row] = []
        #: Per-row {series → standard error}, aligned with ``rows``.
        #: Empty dicts for rows without replication statistics.
        self.row_errors: List[Dict[str, float]] = []

    def add_row(
        self,
        x: float,
        values: Dict[str, Optional[float]],
        errors: Optional[Dict[str, float]] = None,
    ) -> None:
        """Append one x row; unknown series names raise, missing ones render as '-'."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise MetricsError(f"unknown series {sorted(unknown)} in {self.title}")
        if errors:
            unknown = set(errors) - set(self.columns)
            if unknown:
                raise MetricsError(
                    f"unknown error series {sorted(unknown)} in {self.title}"
                )
        self.rows.append((x, dict(values)))
        self.row_errors.append(dict(errors) if errors else {})

    def series(self, column: str) -> List[Tuple[float, Optional[float]]]:
        """(x, y) pairs for one series, in row order."""
        if column not in self.columns:
            raise MetricsError(f"no series {column!r} in {self.title}")
        return [(x, values.get(column)) for x, values in self.rows]

    def column_values(self, column: str) -> List[float]:
        """Non-missing y values for one series."""
        return [y for _x, y in self.series(column) if y is not None]

    # ------------------------------------------------------------------
    def render(self, precision: int = 2) -> str:
        """Aligned table, one row per x, one column per series.

        Cells with replication statistics render as ``mean±stderr``.
        """
        headers = [self.x_label] + self.columns
        body: List[List[str]] = []
        for (x, values), errors in zip(self.rows, self.row_errors):
            cells = [f"{x:g}"]
            for column in self.columns:
                value = values.get(column)
                if value is None:
                    cells.append("-")
                    continue
                cell = f"{value:.{precision}f}"
                error = errors.get(column)
                if error is not None:
                    cell += f"±{error:.{precision}f}"
                cells.append(cell)
            body.append(cells)
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in body)) if body else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [self.title]
        lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeriesTable({self.title!r}, rows={len(self.rows)})"


def _left_sum(values: Iterable[float]) -> float:
    """``+=`` left fold in input order.

    Never builtin sum(): from CPython 3.12 it compensates float sums,
    and the tables would differ by interpreter (lint rule NUM001).
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _mean_and_stderr(samples: List[float]) -> Tuple[float, Optional[float]]:
    """Sample mean and standard error (``None`` for a single sample)."""
    n = len(samples)
    mean = _left_sum(samples) / n
    if n < 2:
        return mean, None
    variance = _left_sum((s - mean) ** 2 for s in samples) / (n - 1)
    return mean, math.sqrt(variance / n)


def aggregate_tables(tables: Sequence[SeriesTable]) -> SeriesTable:
    """Fold N same-shaped tables (one per seed) into mean ± stderr.

    All tables must share title, x label, columns and row count — they
    are replications of one sweep under different seeds.  Rows are
    matched positionally and the x value is averaged too, because
    data-driven grids (the Fig. 7/8 CDF supports) shift slightly from
    seed to seed.  A cell's statistics cover only the replications in
    which it was present; a cell missing everywhere stays ``None``.
    """
    if not tables:
        raise MetricsError("aggregate_tables needs at least one table")
    first = tables[0]
    for table in tables[1:]:
        if (
            table.title != first.title
            or table.x_label != first.x_label
            or table.columns != first.columns
        ):
            raise MetricsError(
                f"cannot aggregate differently-shaped tables: {table!r} vs {first!r}"
            )
        if len(table.rows) != len(first.rows):
            raise MetricsError(
                f"row-count mismatch aggregating {first.title!r}: "
                f"{len(table.rows)} vs {len(first.rows)}"
            )
    if len(tables) == 1:
        return first

    out = SeriesTable(first.title, first.x_label, first.columns)
    for index in range(len(first.rows)):
        xs = [table.rows[index][0] for table in tables]
        values: Dict[str, Optional[float]] = {}
        errors: Dict[str, float] = {}
        for column in first.columns:
            samples = [
                table.rows[index][1].get(column)
                for table in tables
            ]
            present = [s for s in samples if s is not None]
            if not present:
                values[column] = None
                continue
            mean, stderr = _mean_and_stderr(present)
            values[column] = mean
            if stderr is not None:
                errors[column] = stderr
        out.add_row(_left_sum(xs) / len(xs), values, errors=errors or None)
    return out
