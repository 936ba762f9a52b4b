"""Tests for the experiment harness: presets, tables, figure registry."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, MetricsError
from repro.experiments import run_figure
from repro.experiments.figures import FIGURES
from repro.experiments.presets import SCALES, preset
from repro.experiments.report import SeriesTable


class TestPresets:
    def test_paper_preset_is_table_ii(self):
        config = preset("paper")
        assert config.num_peers == 200
        assert config.object_size_mb == 20.0
        assert config.num_categories == 300
        assert config.upload_capacity_kbit == 80.0

    def test_smoke_preset_is_fast(self):
        config = preset("smoke")
        assert config.num_peers <= 50
        assert config.duration <= 30_000.0

    def test_overrides_apply(self):
        config = preset("smoke", upload_capacity_kbit=40.0, seed=7)
        assert config.upload_capacity_kbit == 40.0
        assert config.seed == 7

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigError):
            preset("galactic")

    def test_all_scales_valid(self):
        for scale in SCALES:
            preset(scale)  # validation must pass


class TestSeriesTable:
    def _table(self):
        table = SeriesTable("demo", "x", ["a", "b"])
        table.add_row(1.0, {"a": 10.0, "b": 20.0})
        table.add_row(2.0, {"a": 30.0})
        return table

    def test_series_extraction(self):
        table = self._table()
        assert table.series("a") == [(1.0, 10.0), (2.0, 30.0)]
        assert table.series("b") == [(1.0, 20.0), (2.0, None)]

    def test_column_values_skips_missing(self):
        assert self._table().column_values("b") == [20.0]

    def test_unknown_series_rejected(self):
        table = self._table()
        with pytest.raises(MetricsError):
            table.series("zzz")
        with pytest.raises(MetricsError):
            table.add_row(3.0, {"zzz": 1.0})

    def test_render_contains_all_cells(self):
        text = self._table().render(precision=1)
        assert "demo" in text
        assert "10.0" in text and "30.0" in text
        assert "-" in text  # the missing value placeholder
        lines = text.splitlines()
        assert len(lines) == 5  # title, header, rule, two rows

    def test_render_alignment(self):
        lines = self._table().render().splitlines()
        header, rule = lines[1], lines[2]
        assert len(header) == len(rule)


class TestFigureRegistry:
    def test_all_figures_registered(self):
        assert sorted(FIGURES) == [
            "adoption", "evolution", "fig10", "fig11", "fig12", "fig4",
            "fig5", "fig6", "fig7", "fig8", "fig9", "flashcrowd",
            "robustness", "swarm-growth", "tiers",
        ]

    def test_unknown_figure_rejected(self):
        with pytest.raises(ConfigError):
            run_figure("fig99")

    def test_fig7_smoke_produces_monotone_cdfs(self):
        # The cheapest figure: a single smoke run.
        table = run_figure("fig7", scale="smoke", seed=3)
        assert table.rows
        for column in table.columns:
            values = table.column_values(column)
            assert values == sorted(values)

    def test_fig8_waiting_cdf_smoke(self):
        table = run_figure("fig8", scale="smoke", seed=3)
        for column in ("non-exchange", "pairwise"):
            values = table.column_values(column)
            assert values, f"no sessions of class {column} at smoke scale"


class TestHeterogeneousExperiments:
    def test_adoption_sweep_smoke_end_to_end(self):
        # Acceptance: the adoption sweep runs end-to-end at smoke scale
        # and emits per-class mean download times for >= 3 fractions.
        table = run_figure("adoption", scale="smoke", seed=3)
        assert table.columns == ["adopter", "holdout", "freeloader"]
        assert len(table.rows) >= 3
        fractions = [x for x, _values in table.rows]
        assert fractions == sorted(fractions)
        for x, values in table.rows:
            # Every class that exists at this adoption level reports a
            # mean; empty classes (no adopters at 0, no holdouts at 1)
            # stay None.
            if 0.0 < x < 1.0:
                assert values["adopter"] is not None
                assert values["holdout"] is not None
            assert values["freeloader"] is not None

    def test_capacity_tiers_smoke_end_to_end(self):
        table = run_figure("tiers", scale="smoke", seed=3)
        assert table.columns == ["2-5-way", "none"]
        # Three sharer tiers plus the freeloader reference row.
        assert [x for x, _values in table.rows] == [160.0, 80.0, 40.0, 0.0]
        for _x, values in table.rows:
            for column in table.columns:
                assert values[column] is not None
