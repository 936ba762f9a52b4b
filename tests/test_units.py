"""Unit tests for unit conversions."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro import units


class TestConversions:
    def test_mb_roundtrip(self):
        assert units.kbit_to_mb(units.mb_to_kbit(20.0)) == pytest.approx(20.0)

    def test_paper_object_size(self):
        # 20 MB objects at the 8*1024 kbit/MB convention.
        assert units.mb_to_kbit(20.0) == 163840.0

    def test_minutes_roundtrip(self):
        assert units.seconds_to_minutes(90.0) == 1.5

    @given(st.floats(min_value=0.001, max_value=1e6, allow_nan=False))
    def test_mb_conversion_monotone(self, mb):
        assert units.mb_to_kbit(mb) > 0
        assert units.kbit_to_mb(units.mb_to_kbit(mb)) == pytest.approx(mb)
