"""Reconciliation-overhead ceiling for the vantage fleet (standalone).

Times repeated fused scan days over the default-scale pool through a
one-member :class:`VantageFleet` — which is the campaign's own vantage,
a bare scan engine — and through a three-member one (default 1/16
witness overlap, majority quorum).  The ratio isolates exactly what
multi-vantage adds: witness-panel re-probing, sharding, quorum
reconciliation and the merged-verdict bookkeeping.  A warm-up scan day
runs outside the timed window on both sides (campaigns pay the
rank/assignment memo fill once, not per day).

Two gates, both against ``max_overhead``-style ceilings in the baseline:

* **probes** (deterministic): the members' summed ``probes_sent``, three
  members over one, must stay within ``max_probe_overhead``.  The cost
  model is ``1 + (panel - 1) x overlap`` ~= 1.125x at three vantages, so
  a fleet that re-probes every target at every member (the naive N-x
  design this guards against) fails it on any machine.
* **wall time**: the median over ``PAIRS`` alternating (single,
  fleet) pairs — the order flips every pair, so drift cancels — must
  stay within ``max_overhead``.  A single pair is too noisy to gate on.

Every pair's three-member output (and both probe totals) must equal the
first pair's, so the sweep also asserts determinism.  The median timings
are recorded (merged into ``results/BENCH_vantage_fleet.json`` with
``vantages`` / ``overhead_vs_single`` / ``probe_overhead`` fields,
scenario ``default-predeploy``).

Runs without pytest so the CI perf-smoke job can enforce the ceilings::

    PYTHONPATH=src python benchmarks/bench_vantage_fleet.py \
        --vantages 3 \
        --check-baseline benchmarks/baselines/vantage_fleet.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _perf import record_bench_time

from repro.hitlist import HitlistService
from repro.hitlist.service import ServiceSettings
from repro.simnet import build_internet, default_config
from repro.vantage import VantageFleet, default_vantage_specs

QNAME = "www.google.com"
#: pre-GFW-deploy days; day 0 is the untimed warm-up that fills the
#: shard-assignment memo on both sides
WARMUP_DAY = 0
SCAN_DAYS = (8, 16, 24)
#: alternating (single, fleet) pairs behind the wall-time median
PAIRS = 5


def _targets():
    config = default_config()
    world = build_internet(config)
    settings = ServiceSettings(gfw_filter_deploy_day=config.gfw_filter_deploy_day)
    service = HitlistService(world, config, settings=settings)
    service.bootstrap(WARMUP_DAY)
    return config, sorted(service._scan_pool)


def _measure(config, targets, vantages: int) -> tuple[float, int, dict]:
    """(timed seconds, probes sent by all members, per-day outputs)."""
    world = build_internet(config)
    fleet = VantageFleet(
        world,
        default_vantage_specs(world, config.seed, vantages),
        seed=config.seed,
    )
    fleet.scan(targets, WARMUP_DAY, QNAME)
    outputs = {}
    start = time.perf_counter()
    for day in SCAN_DAYS:
        results, udp53, report = fleet.scan(targets, day, QNAME)
        outputs[day] = (
            {p: frozenset(r.responders) for p, r in results.items()},
            frozenset(udp53.responders),
            None if report is None else report.to_json(),
        )
    wall = time.perf_counter() - start
    probes = sum(scanner.probes_sent for scanner in fleet.scanners)
    return wall, probes, outputs


def run_sweep(vantages: int) -> dict:
    config, targets = _targets()
    walls = {1: [], vantages: []}
    reference = None
    for index in range(PAIRS):
        order = (1, vantages) if index % 2 == 0 else (vantages, 1)
        probes = {}
        for count in order:
            wall, probes[count], outputs = _measure(config, targets, count)
            walls[count].append(wall)
            if count == vantages:
                fleet_outputs = outputs
        observed = (probes[1], probes[vantages], fleet_outputs)
        if reference is None:
            reference = observed
        elif observed != reference:
            raise AssertionError("fleet reconciliation is not deterministic")
    single_probes, fleet_probes, fleet_outputs = reference
    if not any(block[2]["witness_targets"] for block in fleet_outputs.values()):
        raise AssertionError("fleet probed no witness targets")
    ratios = [fleet / single for single, fleet in zip(walls[1], walls[vantages])]
    sweep = {
        "wall_single": statistics.median(walls[1]),
        "wall_fleet": statistics.median(walls[vantages]),
        "overhead": statistics.median(ratios),
        "probe_overhead": fleet_probes / single_probes,
    }
    print(
        f"vantage_fleet[default]: {len(targets)} targets x {len(SCAN_DAYS)} "
        f"days x {PAIRS} pairs; median single={sweep['wall_single']:.2f}s "
        f"fleet{vantages}={sweep['wall_fleet']:.2f}s; pair ratios "
        f"{', '.join(f'{ratio:.3f}' for ratio in ratios)}; median "
        f"overhead={sweep['overhead']:.3f}x; probes {fleet_probes} / "
        f"{single_probes} = {sweep['probe_overhead']:.4f}x"
    )
    return sweep


def check_baseline(path: pathlib.Path, sweep: dict, vantages: int) -> int:
    baseline = json.loads(path.read_text())
    failed = 0
    for key, ceiling_key, what, likely in (
        ("probe_overhead", "max_probe_overhead", "probe",
         "the witness overlap is re-probing more than its configured "
         "slice"),
        ("overhead", "max_overhead", "median wall-time",
         "sharding and reconciliation cost more than the probes they "
         "add"),
    ):
        value, ceiling = sweep[key], baseline[ceiling_key]
        if value > ceiling:
            print(
                f"FLEET REGRESSION: vantages={vantages} {what} overhead "
                f"{value:.3f}x exceeds the {ceiling:.2f}x ceiling — "
                f"likely {likely}",
                file=sys.stderr,
            )
            failed = 1
        else:
            print(f"fleet {what} overhead OK: {value:.3f}x <= {ceiling:.2f}x")
    return failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vantages", type=int, default=3)
    parser.add_argument(
        "--check-baseline", type=pathlib.Path, default=None,
        help="baseline JSON with max_probe_overhead and max_overhead "
             "ceilings; exit 1 when either fleet/single ratio exceeds "
             "its ceiling",
    )
    args = parser.parse_args(argv)
    if args.vantages < 2:
        parser.error("needs --vantages >= 2")
    sweep = run_sweep(args.vantages)
    for count, wall, overhead, probe_overhead in (
        (1, sweep["wall_single"], 1.0, 1.0),
        (args.vantages, sweep["wall_fleet"], sweep["overhead"],
         sweep["probe_overhead"]),
    ):
        record_bench_time(
            "vantage_fleet", wall, scenario="default-predeploy",
            extra={
                "vantages": count,
                "overhead_vs_single": round(overhead, 3),
                "probe_overhead": round(probe_overhead, 4),
            },
        )
    if args.check_baseline is not None:
        return check_baseline(args.check_baseline, sweep, args.vantages)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
