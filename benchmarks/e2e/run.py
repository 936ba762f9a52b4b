"""End-to-end benchmark: one workload, measured cell by cell.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload scale-exchange [--seed 42] \
        [--seconds 28] [--trace 0|1]

Workloads, metrics, units and bounds are declared in ``BENCHMARK.json``
at the repository root; ``README.md`` beside this file explains them.

Each cell (``cell.py``) is one simulation built and run in a fresh
single-threaded child process, one child at a time.  Cells repeat until
the next would end past ``--seconds`` (and at least ``MIN_CELLS``
ran), and each metric is the median over the cells.  Every cell's
trajectory — ``events_fired`` and the summary digest — must equal the
pin in ``pins.json`` for a pinned seed, and the first cell's otherwise;
a mismatch, an exception or a timeout fails the cell.

``--trace 1`` alternates untraced and traced cells (``tracer.py``): the
traced ones give the per-layer metrics, both give ``trace.overhead``,
and their trajectories must agree.

Output: every metric by name with its unit, a JSON record under
``results/``, and as the last stdout line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from tracer import percentile_us  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULTS = HERE / "results"
PINS = HERE / "pins.json"

#: Untraced cells per run at least, whatever ``--seconds`` says.
MIN_CELLS = 3
#: A run ends by this many seconds after it started, killing a late cell.
DEADLINE_S = 170.0
#: Spans with fewer calls report no p99 (too few samples beyond it).
P99_MIN_CALLS = 1000
#: Children run single-threaded with a fixed hash seed.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def unit_of(name: str) -> str:
    """A metric's unit, read off its name."""
    if name == "events_per_s":
        return "events/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("nbytes"):
        return "bytes"
    if name == "trace.overhead" or "_per_" in name:
        return "ratio"
    return "count"


def quartiles(values: List[float]) -> Dict[str, Any]:
    """Median, first and third quartile and sample count."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def layer_metrics(report: Dict[str, Any]) -> Dict[str, float]:
    """The flat per-layer metrics of one traced cell's report."""
    trace = report["trace"]
    run, setup = trace["run"], trace["setup"]
    spans = run["spans"]
    out: Dict[str, float] = {}
    for name, span in spans.items():
        out[f"{name}.calls"] = span["calls"]
        out[f"{name}.self_s"] = span["self_s"]
        out[f"{name}.p50_us"] = percentile_us(span["hist_log2_ns"], 0.50)
        if span["calls"] >= P99_MIN_CALLS:
            out[f"{name}.p99_us"] = percentile_us(span["hist_log2_ns"], 0.99)
    out.update(run["tallies"])
    # Everything in sim.run() outside a top-level span: the event loop
    # itself, plus the collection pass before it.
    out["engine.self_s"] = report["run_s"] - run["toplevel_s"]
    out["metrics.summarize_s"] = spans.get("metrics.summarize", {}).get("total_s", 0.0)
    for name, span in setup["spans"].items():
        out[f"{name}_s"] = span["total_s"]
    out["setup.other_s"] = report["setup_s"] - setup["toplevel_s"]
    for name, value in report["engine"].items():
        out[f"engine.{name}"] = value
    for name, value in report["counters"].items():
        out[f"counters.{name}"] = value
    for name, value in report["storage_nbytes"].items():
        out[f"{name}.storage_nbytes"] = value
    out["host.rss_after_setup_mb"] = report["rss_after_setup_mb"]
    out["host.run_cpu_s"] = report["run_cpu_s"]
    rings = out.get("exchange_manager.try_form_exchanges.rings", 0)
    candidates = out.get("ring_search.find_candidates.candidates", 0)
    searches = out.get("exchange_manager.try_form_exchanges.calls", 0)
    out["ring_search.rings_per_candidate"] = rings / candidates if candidates else 0.0
    out["exchange_manager.rings_per_search"] = rings / searches if searches else 0.0
    out["trace.missing_hooks"] = len(trace["missing_hooks"])
    return out


def cell_metrics(report: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics of one untraced cell's report, and its CPU time."""
    return {
        "setup_s": report["setup_s"],
        "run_s": report["run_s"],
        "cell_s": report["setup_s"] + report["run_s"],
        "events_per_s": report["events_fired"] / report["run_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "host.run_cpu_s": report["run_cpu_s"],
    }


def loadavg() -> Optional[List[float]]:
    """The 1, 5 and 15 minute load averages, where the host exposes them."""
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def cpu_model() -> str:
    """The host CPU's model name, where the host exposes it."""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor()


def run_child(spec: Dict[str, Any], timeout: float) -> Dict[str, Any]:
    """Run one cell in a fresh interpreter; its report, or an ``error``."""
    cell: Dict[str, Any] = {"traced": spec["trace"], "loadavg": loadavg()}
    started = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "cell.py"), json.dumps(spec)],
            cwd=ROOT,
            env={**os.environ, **CHILD_ENV},
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        cell["error"] = f"timed out after {timeout:.0f} s"
        return cell
    cell["wall_s"] = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-1:] or [f"exit {done.returncode}"]
        cell["error"] = tail[0]
        return cell
    cell.update(json.loads(lines[-1]))
    return cell


def judge(cells: List[Dict[str, Any]], pin: Optional[Dict[str, Any]]) -> None:
    """Mark each cell's ``error`` if its run failed a check or its pin."""
    reference = pin
    for cell in cells:
        if "error" in cell:
            continue
        if cell["problems"]:
            cell["error"] = "; ".join(cell["problems"])
            continue
        trajectory = {"events_fired": cell["events_fired"], "digest": cell["digest"]}
        if reference is None:
            reference = trajectory
        elif trajectory != reference:
            cell["error"] = f"trajectory {trajectory} differs from {reference}"


def measure(workload: str, seed: int, seconds: float, traced: bool) -> List[Dict[str, Any]]:
    """Run cells until the next round would end past ``seconds``."""
    plan = [False, True] if traced else [False]
    min_rounds = 1 if traced else MIN_CELLS
    started = time.perf_counter()
    cells: List[Dict[str, Any]] = []
    rounds: List[float] = []
    while True:
        round_started = time.perf_counter()
        for trace in plan:
            remaining = DEADLINE_S - (time.perf_counter() - started)
            spec = {"workload": workload, "seed": seed, "trace": trace}
            cell = run_child(spec, max(1.0, remaining))
            cells.append(cell)
            print(f"  cell {len(cells)}: " + (
                f"error: {cell['error']}" if "error" in cell else
                f"{'traced' if trace else 'untraced'}: setup {cell['setup_s']:.3f} s, "
                f"run {cell['run_s']:.3f} s, {cell['events_fired']} events"
            ), flush=True)
        rounds.append(time.perf_counter() - round_started)
        elapsed = time.perf_counter() - started
        projected = elapsed + statistics.median(rounds)
        if projected > DEADLINE_S or (len(rounds) >= min_rounds and projected > seconds):
            return cells


def host_info(cells: List[Dict[str, Any]]) -> Dict[str, Any]:
    """What a reader needs to compare records across machines."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": next((c["numpy"] for c in cells if "numpy" in c), None),
        "platform": platform.platform(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="measure until the next cell would end past this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from alternating traced cells")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no simulator source or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    pin = json.loads(PINS.read_text()).get(args.workload, {}).get(str(args.seed))
    traced = bool(args.trace)

    print(f"workload {args.workload}, seed {args.seed} "
          f"({'pinned' if pin else 'unpinned'}), {'traced' if traced else 'untraced'}",
          flush=True)
    cells = measure(args.workload, args.seed, args.seconds, traced)
    judge(cells, pin)
    good = [c for c in cells if "error" not in c]
    failed = len(cells) - len(good)

    untraced = [cell_metrics(c) for c in good if not c["traced"]]
    samples: List[Dict[str, float]] = untraced
    if traced:
        samples = [layer_metrics(c) for c in good if c["traced"]]
        if samples and untraced:
            overhead = (statistics.median(c["run_s"] for c in good if c["traced"])
                        / statistics.median(s["run_s"] for s in untraced))
            for sample in samples:
                sample["trace.overhead"] = overhead
    if not samples:
        print("error: no cell succeeded", file=sys.stderr)
        return 1
    names = sorted(set().union(*samples))
    summary = {name: quartiles([s.get(name, 0) for s in samples]) for name in names}
    for name, stats in summary.items():
        print(f"  {name:<48} {stats['median']:>16.6g} {unit_of(name):<8} "
              f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  n {stats['n']}")
    wanted = declared["per_layer" if traced else "end_to_end"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "pinned": bool(pin),
        "trace": traced,
        "seconds": args.seconds,
        "correct": failed == 0,
        "attempted": len(cells),
        "failed": failed,
        "host": host_info(cells),
        "metrics": {name: {**stats, "unit": unit_of(name)} for name, stats in summary.items()},
        # Span histograms stay out: a cell keeps its flat layer metrics.
        "cells": [
            {
                **{key: value for key, value in cell.items() if key != "trace"},
                **({"layers": layer_metrics(cell)} if "trace" in cell else {}),
            }
            for cell in cells
        ],
    }
    RESULTS.mkdir(exist_ok=True)
    kind = "traced" if traced else "untraced"
    path = RESULTS / f"{args.workload}-seed{args.seed}-{kind}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(cells),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": summary.get(m["name"], {"median": 0})["median"], "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
