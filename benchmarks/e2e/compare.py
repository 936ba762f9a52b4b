"""Compare two sets of benchmark records, workload by workload.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py A B

``A`` is the parent's set and ``B`` the change's; each is a record
written by ``run.py --trace 0`` or a directory of them.  Every
untraced cell that succeeded is one sample.  For each workload and
each end-to-end metric of ``BENCHMARK.json`` the script prints both
sides' median, quartiles and sample count, and a verdict:

* ``regression``: B's median is worse than A's by more than the
  metric's bound;
* ``unresolved``: A's own interquartile range is wider than the bound,
  so no verdict is possible, unless every B sample reads better than
  every A sample;
* ``ok`` otherwise.

A side's failed cells count against it as ``fail_ratio`` (failed /
attempted), whose bound is 0: any rise is a regression.  The exit
status is 1 when any verdict is ``regression`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, cell_metrics, quartiles  # noqa: E402


def load(path: Path) -> List[Dict[str, Any]]:
    """The untraced records at ``path`` (a record file or a directory)."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text()) for f in files]
    return [r for r in records if not r["trace"]]


def pool(records: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per workload: each metric's samples, and cells attempted and failed."""
    pooled: Dict[str, Dict[str, Any]] = {}
    for record in records:
        side = pooled.setdefault(
            record["workload"], {"samples": {}, "attempted": 0, "failed": 0}
        )
        side["attempted"] += record["attempted"]
        side["failed"] += record["failed"]
        for cell in record["cells"]:
            if "error" in cell or cell["traced"]:
                continue
            for name, value in cell_metrics(cell).items():
                side["samples"].setdefault(name, []).append(value)
    return pooled


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, float]:
    """``(verdict, relative change of B's median)`` for one metric."""
    stats = quartiles(a)
    a_median = stats["median"]
    change = (statistics.median(b) - a_median) / a_median
    worse = change if better == "lower" else -change
    if (stats["q3"] - stats["q1"]) / a_median > bound:
        if better == "lower":
            all_better = max(b) < min(a)
        else:
            all_better = min(b) > max(a)
        return ("ok" if all_better else "unresolved"), change
    if worse > bound:
        return "regression", change
    return "ok", change


def compare(a_path: Path, b_path: Path) -> List[Dict[str, Any]]:
    """One row per workload x end-to-end metric, plus one for ``fail_ratio``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_sets, b_sets = pool(load(a_path)), pool(load(b_path))
    rows: List[Dict[str, Any]] = []
    for workload in [w["name"] for w in declared["workloads"]]:
        a, b = a_sets.get(workload), b_sets.get(workload)
        if a is None or b is None:
            if a is not None or b is not None:
                rows.append({"workload": workload, "metric": "*", "verdict": "unresolved",
                             "note": "only one side has records"})
            continue
        for metric in declared["end_to_end"]:
            name = metric["name"]
            a_values = a["samples"].get(name, [])
            b_values = b["samples"].get(name, [])
            row: Dict[str, Any] = {"workload": workload, "metric": name,
                                   "unit": metric["unit"], "bound": metric["bound"]}
            if not a_values or not b_values:
                row.update(verdict="unresolved", note="no successful cell on one side")
            else:
                row["a"], row["b"] = quartiles(a_values), quartiles(b_values)
                row["verdict"], row["change"] = verdict(
                    a_values, b_values, metric["better"], metric["bound"]
                )
            rows.append(row)
        a_ratio = a["failed"] / a["attempted"]
        b_ratio = b["failed"] / b["attempted"]
        rows.append({"workload": workload, "metric": "fail_ratio", "unit": "ratio",
                     "bound": 0.0, "a_ratio": a_ratio, "b_ratio": b_ratio,
                     "verdict": "regression" if b_ratio > a_ratio else "ok"})
    return rows


def _side(stats: Dict[str, Any]) -> str:
    return f"{stats['median']:.4g} [{stats['q1']:.4g}, {stats['q3']:.4g}] n={stats['n']}"


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(Path(argv[1]), Path(argv[2]))
    print(f"{'workload':<15} {'metric':<13} {'A median [q1, q3]':<38} "
          f"{'B median [q1, q3]':<38} {'change':>8}  verdict")
    for row in rows:
        if "a" in row:
            sides = f"{_side(row['a']):<38} {_side(row['b']):<38} {row['change']:>+8.1%}"
        elif "a_ratio" in row:
            sides = f"{row['a_ratio']:<38.3g} {row['b_ratio']:<38.3g} {'':>8}"
        else:
            sides = f"{row['note']:<86}"
        print(f"{row['workload']:<15} {row['metric']:<13} {sides}  {row['verdict']}")
    bad = [r for r in rows if r["verdict"] != "ok"]
    print(f"{len(rows) - len(bad)} ok, "
          f"{sum(r['verdict'] == 'regression' for r in rows)} regression, "
          f"{sum(r['verdict'] == 'unresolved' for r in rows)} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
