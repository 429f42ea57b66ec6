"""Parallel-efficiency floor for the scan engine (standalone, CI-friendly).

Times repeated fused scan days over the default-scale pool at
``scan_workers=1`` and ``scan_workers=N`` with a warm pool, asserts the
responder sets are bit-identical, and records both timings (merged into
``results/BENCH_perf_scan_workers.json`` with ``scan_workers`` /
``speedup_vs_w1`` fields, scenario ``default-predeploy``).

Runs without pytest so the CI perf-smoke job can enforce the floor::

    PYTHONPATH=src python benchmarks/bench_parallel_scan.py \
        --workers 4 \
        --check-baseline benchmarks/baselines/parallel_scan_default.json

With ``--check-baseline`` the script exits non-zero when the measured
``workers=N`` speedup over ``workers=1`` falls below the baseline's
``min_speedup`` — the regression this guards against is the pre-wire-
format engine, whose per-chunk pickling made 4 workers *slower* than 1.
The floor only holds on machines with at least ``--workers`` usable
cores, so the check is meant for CI runners, not laptops mid-compile.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _perf import record_bench_time

from repro.hitlist import HitlistService
from repro.hitlist.service import ServiceSettings
from repro.scan import ScanEngine
from repro.simnet import build_internet, default_config

QNAME = "www.google.com"
#: a few scan days so per-scan noise averages out.  Pre-GFW-era days:
#: forged answers are merged and cleaned serially in the parent, so
#: GFW-era days measure that merge, not worker scaling — the floor
#: guards the parallelizable probe stage
SCAN_DAYS = (0, 8, 16)
CHUNK_SIZE = 4096


def _measure(engine: ScanEngine, targets: list) -> tuple[float, dict]:
    engine.warm(len(targets))
    snapshots = {}
    start = time.perf_counter()
    for day in SCAN_DAYS:
        results, udp53 = engine.scan_all_protocols(targets, day, QNAME)
        snapshots[day] = (
            {p: frozenset(r.responders) for p, r in results.items()},
            frozenset(udp53.responders),
        )
    return time.perf_counter() - start, snapshots


def run_sweep(workers: int) -> tuple[float, float]:
    config = default_config()
    world = build_internet(config)
    settings = ServiceSettings(
        gfw_filter_deploy_day=config.gfw_filter_deploy_day,
        scan_chunk_size=CHUNK_SIZE,
    )
    service = HitlistService(world, config, settings=settings)
    service.bootstrap(SCAN_DAYS[0])
    targets = list(service._scan_pool)
    scanner = service.scanner

    timings = {}
    reference = None
    for count in (1, workers):
        engine = ScanEngine(scanner, workers=count, chunk_size=CHUNK_SIZE)
        try:
            timings[count], snapshots = _measure(engine, targets)
        finally:
            engine.close()
        if reference is None:
            reference = snapshots
        elif snapshots != reference:
            raise AssertionError(
                f"scan_workers={count} diverged from scan_workers=1"
            )
    print(
        f"parallel_scan[default]: {len(targets)} targets x {len(SCAN_DAYS)} "
        f"days; w1={timings[1]:.2f}s w{workers}={timings[workers]:.2f}s "
        f"speedup={timings[1] / timings[workers]:.2f}x "
        f"(cpus={os.cpu_count()})"
    )
    return timings[1], timings[workers]


def check_baseline(path: pathlib.Path, speedup: float, workers: int) -> int:
    baseline = json.loads(path.read_text())
    floor = baseline["min_speedup"]
    if speedup < floor:
        print(
            f"PARALLEL REGRESSION: workers={workers} speedup {speedup:.2f}x "
            f"is below the {floor:.1f}x floor — per-chunk IPC is likely "
            f"dominating compute again",
            file=sys.stderr,
        )
        return 1
    print(f"parallel efficiency OK: {speedup:.2f}x >= {floor:.1f}x floor")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument(
        "--check-baseline", type=pathlib.Path, default=None,
        help="baseline JSON with a min_speedup floor; exit 1 when "
             "workers=N falls below it",
    )
    args = parser.parse_args(argv)
    wall_w1, wall_wn = run_sweep(args.workers)
    speedup = wall_w1 / wall_wn
    for count, wall in ((1, wall_w1), (args.workers, wall_wn)):
        record_bench_time(
            "perf_scan_workers", wall, scenario="default-predeploy",
            extra={
                "scan_workers": count,
                "speedup_vs_w1": round(wall_w1 / wall, 3),
            },
        )
    if args.check_baseline is not None:
        return check_baseline(args.check_baseline, speedup, args.workers)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
