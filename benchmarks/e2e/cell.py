"""One benchmark cell in a fresh process: build, run, check, report.

``run.py`` starts one of these per cell, one at a time, so every cell
pays the same cold start and ``ru_maxrss`` is that cell's own peak.
By hand it is a debugging aid::

    python benchmarks/e2e/cell.py '{"workload": "scale-exchange", "seed": 42, "trace": false}'

The last stdout line is one JSON object (see :func:`run_cell`).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]


def summary_digest(summary: Any) -> str:
    """sha256 of the summary's sorted JSON: the trajectory fingerprint."""
    text = json.dumps(dataclasses.asdict(summary), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB (Linux kB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check(result: Any, forms_rings: bool) -> List[str]:
    """What is wrong with a finished run, beyond its pinned trajectory."""
    summary = result.summary
    problems = []
    if result.events_fired <= 0:
        problems.append("no event fired")
    if sum(summary.session_counts.values()) <= 0:
        problems.append("no transfer session ended in the measurement window")
    fraction = summary.exchange_session_fraction
    if fraction is not None and not 0.0 <= fraction <= 1.0:
        problems.append(f"exchange session fraction {fraction} outside [0, 1]")
    rings = summary.counters.get("ring.formed", 0)
    if forms_rings and rings <= 0:
        problems.append("no exchange ring formed")
    if not forms_rings and rings:
        problems.append(f"{rings} rings formed in a workload without exchanges")
    return problems


def _storage_nbytes(owner: Any, missing: List[str], label: str) -> int:
    probe = getattr(owner, "storage_nbytes", None)
    if probe is None:
        missing.append(f"{label}.storage_nbytes")
        return 0
    return int(probe())


def run_cell(config: Any, forms_rings: bool, tracer: Optional[Any] = None) -> Dict[str, Any]:
    """Build and run ``config`` once; times, trajectory, checks, trace.

    ``setup_s`` is ``FileSharingSimulation(config)`` + ``build()``,
    ``run_s`` is ``sim.run()`` (event loop and summary).  With a
    ``tracer`` installed, its setup-phase and run-phase aggregates are
    returned under ``trace``.
    """
    from repro.simulation import FileSharingSimulation

    gc.collect()
    started = time.perf_counter()
    sim = FileSharingSimulation(config)
    sim.build()
    setup_s = time.perf_counter() - started
    rss_after_setup_mb = peak_rss_mb()
    setup_trace = tracer.take() if tracer is not None else None
    cpu_started = time.process_time()
    started = time.perf_counter()
    result = sim.run()
    run_s = time.perf_counter() - started
    run_cpu_s = time.process_time() - cpu_started
    engine = sim.ctx.engine
    missing = list(tracer.missing) if tracer is not None else []
    report: Dict[str, Any] = {
        "setup_s": setup_s,
        "run_s": run_s,
        "run_cpu_s": run_cpu_s,
        "events_fired": result.events_fired,
        "digest": summary_digest(result.summary),
        "problems": check(result, forms_rings),
        "peak_rss_mb": peak_rss_mb(),
        "rss_after_setup_mb": rss_after_setup_mb,
        "engine": {
            name: getattr(engine, name, 0)
            for name in ("cancelled_skipped", "purge_ops", "compactions")
        },
        "storage_nbytes": {
            "metrics": _storage_nbytes(result.metrics, missing, "metrics"),
            "peer_table": _storage_nbytes(sim.ctx.peer_table, missing, "peer_table"),
        },
        "counters": dict(getattr(result, "perf_counters", {}).get("counts", {})),
    }
    if tracer is not None:
        report["trace"] = {
            "setup": setup_trace,
            "run": tracer.take(),
            "missing_hooks": missing,
        }
    return report


def with_counters(config: Any) -> Any:
    """``config`` with the program's perf counters on, if it still has them."""
    if "perf_counters" in {f.name for f in dataclasses.fields(config)}:
        return dataclasses.replace(config, perf_counters=True)
    return config


def main(argv: List[str]) -> int:
    spec = json.loads(argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    # Imported by build() on demand; loaded here so setup_s times the
    # build, not a module import.
    import repro.network.churn  # noqa: F401
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    config = workload.config(spec["seed"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        config = with_counters(config)
    report = run_cell(config, workload.forms_rings, tracer)
    report["numpy"] = numpy.__version__
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
