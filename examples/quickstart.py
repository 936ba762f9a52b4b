"""Quickstart: run one simulated file-sharing network and read the results.

Builds a small exchange-enabled network (2-5-way rings, 50% free-riders),
runs it for a few simulated hours and prints the headline numbers the
paper's evaluation revolves around: mean download time for sharing vs.
non-sharing users, and the exchange share of transfer sessions.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import time

from repro import SimulationConfig, run_simulation


def main() -> None:
    config = SimulationConfig(
        # A laptop-friendly population; Table II defaults otherwise.
        num_peers=60,
        num_categories=60,
        objects_per_category_max=80,
        object_size_mb=4.0,
        block_size_kbit=1024.0,
        storage_min_objects=4,
        storage_max_objects=20,
        upload_capacity_kbit=40.0,  # loaded regime: incentives bite here
        exchange_mechanism="2-5-way",
        duration=30_000.0,
        warmup=6_000.0,
        seed=7,
    )
    print("Simulating", config.num_peers, "peers with mechanism",
          config.exchange_mechanism, "...")
    started = time.perf_counter()
    result = run_simulation(config)
    wall_seconds = time.perf_counter() - started
    summary = result.summary

    print(f"\nsimulated {config.duration:.0f}s in {wall_seconds:.1f}s "
          f"({result.events_fired} events)")
    print(f"completed downloads: {summary.completed_downloads_sharers} by sharers, "
          f"{summary.completed_downloads_freeloaders} by free-riders")
    print(f"mean download time, sharers:     "
          f"{summary.mean_download_time_sharers_min:.1f} min")
    print(f"mean download time, free-riders: "
          f"{summary.mean_download_time_freeloaders_min:.1f} min")
    print(f"sharer speedup over free-riders: "
          f"{summary.speedup_sharers_vs_freeloaders:.2f}x")
    print(f"exchange share of sessions:      "
          f"{summary.exchange_session_fraction:.1%}")

    rings = {
        key.removeprefix("ring.formed.size"): value
        for key, value in summary.counters.items()
        if key.startswith("ring.formed.size")
    }
    print(f"rings formed by size:            {rings or 'none'}")


if __name__ == "__main__":
    main()
