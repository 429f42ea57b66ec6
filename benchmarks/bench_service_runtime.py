"""End-to-end service-runtime benchmark (standalone, CI-friendly).

Times a complete :class:`HitlistService` run — world build excluded,
scan/APD/churn/checkpoint loop included — and records the wall time into
``results/BENCH_service_runtime_<preset>.json`` via the shared
``_perf.record_bench_time`` helper.

Runs without pytest so the CI perf-smoke job can call it directly::

    PYTHONPATH=src python benchmarks/bench_service_runtime.py \
        --preset small --days 240 \
        --check-baseline benchmarks/baselines/service_runtime_small.json

With ``--check-baseline`` the script exits non-zero when the measured
wall time exceeds ``seconds * max_regression`` from the baseline file,
turning gross performance regressions into CI failures while leaving
headroom for shared-runner noise.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _perf import record_bench_time

from repro.hitlist import HitlistService, default_scan_days
from repro.hitlist.service import ServiceSettings
from repro.simnet import build_internet, default_config, small_config

PRESETS = {"small": small_config, "default": default_config}


def run_once(preset: str, days_cap: int | None) -> tuple[float, int]:
    config = PRESETS[preset]()
    days = default_scan_days(config.final_day)
    if days_cap is not None:
        days = [day for day in days if day <= days_cap]
    world = build_internet(config)
    settings = ServiceSettings(
        gfw_filter_deploy_day=config.gfw_filter_deploy_day,
        trace_sample_rate=0.5 if preset == "default" else 1.0,
    )
    service = HitlistService(world, config, settings=settings)
    start = time.perf_counter()
    history = service.run(days)
    wall = time.perf_counter() - start
    final = history.retained[max(history.retained)]
    responders = len(frozenset().union(*final.responders.values()))
    print(
        f"service_runtime[{preset}]: {len(days)} scans, "
        f"{responders} final responders, wall={wall:.2f}s"
    )
    return wall, len(days)


def check_baseline(path: pathlib.Path, wall: float) -> int:
    baseline = json.loads(path.read_text())
    budget = baseline["seconds"] * baseline.get("max_regression", 2.0)
    if wall > budget:
        print(
            f"PERF REGRESSION: wall {wall:.2f}s exceeds budget {budget:.2f}s "
            f"({baseline['seconds']:.2f}s baseline x "
            f"{baseline.get('max_regression', 2.0):.1f})",
            file=sys.stderr,
        )
        return 1
    print(f"perf budget OK: {wall:.2f}s <= {budget:.2f}s")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=sorted(PRESETS), default="small")
    parser.add_argument(
        "--days", type=int, default=None,
        help="only run scan days <= this (default: full schedule)",
    )
    parser.add_argument(
        "--check-baseline", type=pathlib.Path, default=None,
        help="baseline JSON ({seconds, max_regression}); exit 1 on breach",
    )
    args = parser.parse_args(argv)

    wall, scans = run_once(args.preset, args.days)
    scenario = args.preset if args.days is None else f"{args.preset}-{args.days}d"
    record_bench_time(
        f"service_runtime_{args.preset}",
        wall,
        scenario=scenario,
        extra={"scans": scans},
    )
    if args.check_baseline is not None:
        return check_baseline(args.check_baseline, wall)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
