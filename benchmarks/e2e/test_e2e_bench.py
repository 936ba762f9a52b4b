"""Tests of the end-to-end benchmark: tracer, cell, judge and compare.

Run with ``pytest benchmarks/e2e``.  Simulations use a tiny 8-peer
config (~50 ms), so the whole file takes seconds.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
from cell import run_cell, with_counters  # noqa: E402
from run import judge, layer_metrics, unit_of  # noqa: E402
from tracer import Tracer, percentile_us  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro import SimulationConfig  # noqa: E402
from repro.metrics.columnar import ColumnarCollector  # noqa: E402

TINY = SimulationConfig(
    num_peers=8,
    num_categories=6,
    objects_per_category_max=6,
    object_size_mb=1.0,
    block_size_kbit=1024.0,
    storage_min_objects=2,
    storage_max_objects=4,
    duration=2000.0,
    warmup=500.0,
)


def traced_cell(config=TINY):
    tracer = Tracer()
    tracer.install()
    try:
        return run_cell(with_counters(config), True, tracer)
    finally:
        tracer.uninstall()


def test_traced_run_keeps_the_trajectory():
    untraced = run_cell(TINY, True)
    traced = traced_cell()
    assert traced["events_fired"] == untraced["events_fired"] > 0
    assert traced["digest"] == untraced["digest"]
    assert traced["trace"]["run"]["spans"]["event.scan"]["calls"] > 0
    assert traced["trace"]["missing_hooks"] == []


def test_self_times_and_engine_time_sum_to_the_run():
    report = traced_cell()
    layers = layer_metrics(report)
    spans_self = sum(s["self_s"] for s in report["trace"]["run"]["spans"].values())
    assert layers["engine.self_s"] > 0
    assert spans_self + layers["engine.self_s"] == pytest.approx(report["run_s"], rel=0.02)


def test_uninstall_restores_every_binding():
    from repro.core import exchange_manager
    from repro.sim.engine import Engine

    before = (Engine.schedule_at, exchange_manager.find_candidates)
    tracer = Tracer()
    tracer.install()
    assert (Engine.schedule_at, exchange_manager.find_candidates) != before
    tracer.uninstall()
    assert (Engine.schedule_at, exchange_manager.find_candidates) == before


def test_provider_mask_span_counts_only_the_bitset_path():
    import numpy as np

    from repro.core.peer_table import BITSET_MIN, PeerStateTable

    table = PeerStateTable(capacity=4)
    for peer_id in range(4 * BITSET_MIN):
        table.register(peer_id, online=True, shares=True, enables_exchanges=True, max_ring=5)
    keys = set(range(0, 4 * BITSET_MIN, 2))
    keys_sorted = np.asarray(sorted(keys), dtype=np.intc)
    large = set(range(2 * BITSET_MIN))
    tracer = Tracer()
    tracer.install()
    try:
        table.sorted_intersection(1, 1, {3, 4}, keys_sorted, keys)
        table.sorted_intersection(2, 1, large, None, keys)
        hits = table.sorted_intersection(3, 1, large, keys_sorted, keys)
    finally:
        tracer.uninstall()
    assert hits == sorted(large & keys)
    spans = tracer.take()["spans"]
    assert spans["peer_table.sorted_intersection"]["calls"] == 3
    assert spans["peer_table.provider_mask"]["calls"] == 1


def test_missing_hook_is_listed_not_fatal(monkeypatch):
    monkeypatch.delattr(ColumnarCollector, "session_rows_since")
    report = traced_cell()
    target = "repro.metrics.columnar:ColumnarCollector.session_rows_since"
    assert report["trace"]["missing_hooks"] == [target]
    assert layer_metrics(report)["trace.missing_hooks"] == 1


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))
    outer = tracer.wrap("outer", lambda: (time.sleep(0.01), inner()))
    outer()
    snapshot = tracer.take()
    spans = snapshot["spans"]
    assert spans["outer"]["total_s"] == pytest.approx(0.02, abs=0.008)
    assert spans["outer"]["self_s"] == pytest.approx(spans["inner"]["total_s"], rel=0.5)
    assert snapshot["toplevel_s"] == spans["outer"]["total_s"]
    assert tracer.take()["spans"] == {}


def test_percentile_reads_the_log2_histogram():
    hist = [0] * 64
    hist[11] = 100  # 100 durations in [1024, 2048) ns
    assert 1.024 <= percentile_us(hist, 0.5) < 2.048
    hist[21] = 1  # one ~1 ms outlier above the 99th percentile
    assert percentile_us(hist, 0.99) < 2.048


def test_judge_fails_a_pin_mismatch_but_not_an_unpinned_seed():
    cells = [
        {"problems": [], "events_fired": 10, "digest": "a"},
        {"problems": [], "events_fired": 10, "digest": "a"},
        {"problems": [], "events_fired": 11, "digest": "a"},
    ]
    judge(cells, None)
    assert ["error" in c for c in cells] == [False, False, True]
    pinned = [{"problems": [], "events_fired": 10, "digest": "a"}]
    judge(pinned, {"events_fired": 10, "digest": "b"})
    assert "error" in pinned[0]


def _record(workload, run_s, failed=0):
    cells = [
        {"traced": False, "setup_s": 0.5, "run_s": r, "events_fired": 1000,
         "peak_rss_mb": 100.0, "run_cpu_s": r}
        for r in run_s
    ]
    return {"workload": workload, "trace": False, "attempted": len(cells) + failed,
            "failed": failed, "cells": cells}


def test_compare_verdicts(tmp_path):
    a = [4.0, 4.02, 3.98, 4.01, 3.99]
    sets = {
        "a": [_record("huge3k", a), _record("scale-churn", [4.0, 6.0, 3.0, 5.0, 2.0])],
        "b": [_record("huge3k", [x * 1.5 for x in a], failed=1),
              _record("scale-churn", [4.1, 6.1, 3.1, 5.1, 2.1])],
    }
    for side, records in sets.items():
        (tmp_path / side).mkdir()
        for i, record in enumerate(records):
            (tmp_path / side / f"{i}.json").write_text(json.dumps(record))
    rows = {(r["workload"], r["metric"]): r["verdict"]
            for r in compare.compare(tmp_path / "a", tmp_path / "b")}
    assert rows[("huge3k", "run_s")] == "regression"
    assert rows[("huge3k", "events_per_s")] == "regression"
    assert rows[("huge3k", "setup_s")] == "ok"
    assert rows[("huge3k", "fail_ratio")] == "regression"
    assert rows[("scale-churn", "run_s")] == "unresolved"
    assert rows[("scale-churn", "peak_rss_mb")] == "ok"


def test_compare_wide_spread_resolves_only_when_every_run_is_better():
    a = [4.0, 6.0, 3.0, 5.0, 2.0]
    assert compare.verdict(a, [1.0, 1.5], "lower", 0.1)[0] == "ok"
    assert compare.verdict(a, [1.0, 2.5], "lower", 0.1)[0] == "unresolved"


def test_benchmark_json_matches_the_code():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert metric["unit"] == unit_of(metric["name"]), metric
