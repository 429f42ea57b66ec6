"""``BENCHMARK.json``: loading, schema checks, and the layer map.

``LAYER_TARGETS`` records, before any measurement, which end-to-end
metric each per-layer metric should move and on which workloads; the
self-tests check it against the metric and workload names in
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCHMARK = ROOT / "BENCHMARK.json"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")
KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}

CAMPAIGNS = ("steady", "incremental", "gfw-era")
SERVE = ("serve",)

#: per-layer metric -> (end-to-end metric it should move, workloads)
LAYER_TARGETS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "simnet.build_s": ("setup_s", CAMPAIGNS),
    "sources.collect_s": ("p50_ms", ("gfw-era",)),
    "sources.calls": ("p50_ms", ("gfw-era",)),
    "apd.run_s": ("wall_s", ("gfw-era", "steady")),
    "apd.calls": ("wall_s", ("gfw-era", "steady")),
    "apd.prefixes_tested": ("wall_s", ("gfw-era", "steady")),
    "sched.plan_s": ("wall_s", ("incremental",)),
    "sched.carried_scan_s": ("wall_s", ("incremental",)),
    "sched.absorb_s": ("wall_s", ("incremental",)),
    "sched.carried_targets": ("wall_s", ("incremental",)),
    "sched.probed_share": ("wall_s", ("incremental",)),
    "engine.scan_s": ("wall_s", CAMPAIGNS),
    "engine.chunk_s": ("wall_s", ("steady",)),
    "engine.merge_s": ("wall_s", ("gfw-era",)),
    "engine.targets": ("wall_s", CAMPAIGNS),
    "engine.targets_per_s": ("rate_per_s", CAMPAIGNS),
    "engine.probes": ("wall_s", CAMPAIGNS),
    "gfw.clean_s": ("p50_ms", ("gfw-era", "steady")),
    "gfw.injected": ("p50_ms", ("gfw-era",)),
    "yarrp.trace_s": ("wall_s", CAMPAIGNS),
    "yarrp.hops": ("wall_s", CAMPAIGNS),
    "store.commit_s": ("wall_s", ("steady",)),
    "store.commits": ("wall_s", ("steady",)),
    "store.bytes": ("wall_s", ("steady",)),
    "checkpoint.write_s": ("wall_s", ("steady",)),
    "checkpoint.writes": ("wall_s", ("steady",)),
    "checkpoint.bytes": ("wall_s", ("steady",)),
    "fsync.calls": ("wall_s", ("steady",)),
    "service.residual_s": ("wall_s", CAMPAIGNS),
    "app.handle_rps": ("rate_per_s", SERVE),
    "app.handle_p50_us": ("p50_ms", SERVE),
    "app.handle_p99_us": ("tail_ms", SERVE),
    "transport.efficiency": ("rate_per_s", SERVE),
    "transport.us_per_req": ("rate_per_s", SERVE),
    "cache.hit_ratio": ("rate_per_s", SERVE),
    "gzip.compressions": ("rate_per_s", SERVE),
    "trace.overhead": ("wall_s", CAMPAIGNS),
}


def load(path: pathlib.Path = BENCHMARK) -> Dict[str, object]:
    return json.loads(path.read_text())


def units(bench: Dict[str, object]) -> Dict[str, str]:
    """Metric name -> unit, end-to-end and per-layer."""
    return {
        metric["name"]: metric["unit"]
        for metric in bench["end_to_end"] + bench["per_layer"]
    }


def validate(bench: Dict[str, object]) -> List[str]:
    """Every way ``bench`` breaks the benchmark file's schema."""
    problems: List[str] = []
    if set(bench) != KEYS:
        problems.append(f"keys {sorted(bench)} != {sorted(KEYS)}")
        return problems
    command = bench["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32
            and all(isinstance(part, str) and len(part) <= 200 for part in command)):
        problems.append("command: 1-32 strings of at most 200 characters")
    elif any(part.startswith("/") or ".." in part.split("/") for part in command):
        problems.append("command: no absolute paths and no '..'")
    paths = bench["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16
            and all(isinstance(p, str) and PATH_RE.match(p) for p in paths)):
        problems.append("paths: 1-16 relative paths of [A-Za-z0-9_.-/]")
    seconds = bench["run_seconds"]
    if not (isinstance(seconds, int) and 1 <= seconds <= 60):
        problems.append("run_seconds: a whole number from 1 to 60")
    workloads = bench["workloads"]
    if not 2 <= len(workloads) <= 8:
        problems.append(f"workloads: {len(workloads)}, expected 2-8")
    for workload in workloads:
        if set(workload) != {"name", "why"}:
            problems.append(f"workload {workload}: keys must be name, why")
        elif len(workload["why"]) > 200 or "\n" in workload["why"]:
            problems.append(f"workload {workload['name']}: why must be one line <= 200")
    e2e, layers = bench["end_to_end"], bench["per_layer"]
    if not 1 <= len(e2e) <= 16:
        problems.append(f"end_to_end: {len(e2e)} metrics, expected 1-16")
    if not 1 <= len(layers) <= 128:
        problems.append(f"per_layer: {len(layers)} metrics, expected 1-128")
    for metric in e2e:
        if set(metric) != {"name", "unit", "better", "bound"}:
            problems.append(f"end_to_end {metric}: keys must be name, unit, better, bound")
        elif not 0 <= metric["bound"] <= 0.25:
            problems.append(f"end_to_end {metric['name']}: bound outside [0, 0.25]")
    for metric in layers:
        if set(metric) != {"name", "unit", "better"}:
            problems.append(f"per_layer {metric}: keys must be name, unit, better")
    names = [w.get("name", "") for w in workloads]
    names += [m.get("name", "") for m in e2e + layers]
    for name in names:
        if not NAME_RE.match(name):
            problems.append(f"name {name!r} does not match {NAME_RE.pattern}")
    duplicates = sorted({name for name in names if names.count(name) > 1})
    if duplicates:
        problems.append(f"names used more than once: {duplicates}")
    for metric in e2e + layers:
        if not UNIT_RE.match(metric.get("unit", "")):
            problems.append(f"{metric.get('name')}: unit {metric.get('unit')!r}")
        if metric.get("better") not in ("lower", "higher"):
            problems.append(f"{metric.get('name')}: better must be lower or higher")
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end must hold setup_s in s, better lower")
    elif setup[0]["bound"] < max(m.get("bound", 0) for m in e2e):
        problems.append("setup_s must carry the largest bound")
    if len(json.dumps(bench).encode()) > 64 * 1024:
        problems.append("BENCHMARK.json exceeds 64 KiB")
    return problems


def layer_problems(bench: Dict[str, object]) -> List[str]:
    """Per-layer metrics without a known end-to-end target, or vice versa."""
    e2e = {metric["name"] for metric in bench["end_to_end"]}
    workloads = {workload["name"] for workload in bench["workloads"]}
    layers = {metric["name"] for metric in bench["per_layer"]}
    problems = [f"{name}: no entry in LAYER_TARGETS" for name in sorted(layers - set(LAYER_TARGETS))]
    problems += [f"{name}: in LAYER_TARGETS, not in BENCHMARK.json" for name in sorted(set(LAYER_TARGETS) - layers)]
    for name, (target, on) in sorted(LAYER_TARGETS.items()):
        if target not in e2e:
            problems.append(f"{name}: moves unknown end-to-end metric {target}")
        problems += [f"{name}: unknown workload {w}" for w in on if w not in workloads]
    return problems
