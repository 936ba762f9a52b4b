"""The benchmark regression guard (``scripts/check_bench.py``)."""

from __future__ import annotations

import copy
import json
import os
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

sys.path.insert(0, os.path.join(REPO_ROOT, "scripts"))
from check_bench import compare, main  # noqa: E402

BASELINE = {
    "events_fired": 1000,
    "events_per_second": 500.0,
    "peak_rss_mb": 50.0,
    "counters": {"counts": {"block": 600, "pass": 400, "engine.fired": 1000}},
}


def _fresh(**counts):
    record = copy.deepcopy(BASELINE)
    record["counters"]["counts"].update(counts)
    return record


class TestCountsPin:
    def test_equal_counts_pass(self):
        ok, notes = compare(BASELINE, _fresh(), tolerance=0.5)
        assert ok
        assert "counters.counts == baseline (3 keys)" in notes

    def test_changed_count_fails_and_names_the_key(self):
        ok, notes = compare(BASELINE, _fresh(block=601), tolerance=0.5)
        assert not ok
        assert any("block 601 != baseline 600" in note for note in notes)
        assert not any("pass" in note for note in notes if "differ" in note)

    def test_added_and_missing_keys_fail(self):
        fresh = _fresh(scan=7)
        del fresh["counters"]["counts"]["pass"]
        ok, notes = compare(BASELINE, fresh, tolerance=0.5)
        assert not ok
        differ = next(note for note in notes if "differ" in note)
        assert "pass None != baseline 400" in differ
        assert "scan 7 != baseline None" in differ

    def test_empty_baseline_counts_are_pinned_too(self):
        baseline = dict(BASELINE, counters={"counts": {}})
        ok, notes = compare(baseline, _fresh(), tolerance=0.5)
        assert not ok
        differ = next(note for note in notes if "differ" in note)
        assert "block 600 != baseline None" in differ


def test_main_fails_on_a_counts_mismatch(tmp_path, capsys):
    baselines, results = tmp_path / "baselines", tmp_path / "results"
    baselines.mkdir()
    results.mkdir()
    (baselines / "BENCH_x_smoke.json").write_text(json.dumps(BASELINE))
    (results / "BENCH_x_smoke.json").write_text(json.dumps(_fresh(scan=3)))
    argv = ["--baselines", str(baselines), "--results", str(results)]
    assert main(argv) == 1
    assert "scan 3 != baseline None" in capsys.readouterr().out
    (results / "BENCH_x_smoke.json").write_text(json.dumps(BASELINE))
    assert main(argv) == 0
