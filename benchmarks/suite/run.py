#!/usr/bin/env python3
"""The repository benchmark: three campaign workloads and one serving workload.

Run from the repository root::

    python3 benchmarks/suite/run.py [--workload NAME]... [--seed N]
        [--trace [0|1]] [--json OUT]

Each episode runs in a fresh ``workload.py`` process.  Every metric is
printed as ``workload metric value unit``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Untraced runs
report the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
alternates untraced and traced episodes and reports the per-layer
metrics.  Each workload measures for ``run_seconds`` of
``BENCHMARK.json``; ``--seconds``, if given, must equal it.  Timings are
in reference seconds (see ``refclock.py``).  Any output that differs
from its pinned or differential reference is named on stderr, and the
exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

SUITE = pathlib.Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
PINNED = SUITE / "pinned.json"

sys.path.insert(0, str(SUITE))
import spec  # noqa: E402
from layers import LAYER_ENTRIES  # noqa: E402
from refclock import SpeedSeries  # noqa: E402
from stats import highest_supported, percentile  # noqa: E402
from workload import SETUP_SAMPLES  # noqa: E402

#: one episode process may take no longer than this
EPISODE_TIMEOUT = 170


class BenchmarkError(RuntimeError):
    pass


def spawn(workload: str, seed: int, traced: bool = False,
          setup_only: bool = False) -> Dict[str, object]:
    """Run one ``workload.py`` process and return its JSON result."""
    command = [
        sys.executable, str(SUITE / "workload.py"), "--workload", workload,
        "--seed", str(seed),
    ]
    command += ["--traced"] * traced + ["--setup-only"] * setup_only
    command += ["--spawned-at", repr(time.monotonic())]
    # its own session, so a timeout also takes down the serving subprocess
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=EPISODE_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise BenchmarkError(f"{workload}: an episode ran past {EPISODE_TIMEOUT} s")
    if process.returncode != 0:
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        raise BenchmarkError(f"{workload}: episode exited {process.returncode}\n{tail}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["traced"] = traced
    return result


def episodes_for(workload: str, seed: int, seconds: float, trace: bool):
    """Whole episodes while the next fits in ``seconds`` (at least one),
    then set-up-only processes up to ``SETUP_SAMPLES`` set-ups in all.

    Traced runs alternate untraced and traced episodes, at least one of
    each.
    """
    episodes: List[Dict[str, object]] = []
    durations: List[float] = []
    began = time.monotonic()
    least = 2 if trace else 1
    while len(episodes) < least or (
        time.monotonic() - began + statistics.median(durations) <= seconds
    ):
        start = time.monotonic()
        episodes.append(spawn(workload, seed, traced=trace and len(episodes) % 2 == 1))
        durations.append(time.monotonic() - start)
    for _ in range(SETUP_SAMPLES - len(episodes)):
        episodes.append(dict(spawn(workload, seed, setup_only=True), extra_setup=True))
    return episodes


def campaign_metrics(runs):
    """End-to-end (and, given traced episodes, per-layer) campaign metrics.

    ``runs`` are the episode results plus set-up-only results, each with
    its own kernel series; returns the record and the episodes proper.
    The tail is the highest percentile with ten scans of one episode
    beyond it, or the slowest scan when there are too few; it is taken
    over the scans of every untraced episode.
    """
    series = {id(run): SpeedSeries(run["speed"], run["flushes"]) for run in runs}
    episodes = [e for e in runs if "extra_setup" not in e]
    plain = [e for e in episodes if not e["traced"]]
    scans = [series[id(e)].scale(s) for e in plain for s in e["scans"]]
    walls = [series[id(e)].scale(e["run"]) for e in plain]
    setups = [series[id(e)].scale(e["setup"]) for e in runs]
    tail_pct = highest_supported(len(plain[0]["scans"])) or 100
    record = {
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "rate_per_s": statistics.median(
                e["work"] / wall for e, wall in zip(plain, walls)),
            "p50_ms": 1000 * statistics.median(scans),
            "tail_ms": 1000 * percentile(scans, tail_pct),
            "peak_rss_mb": statistics.median(e["rss_mb"] for e in plain),
        },
        "notes": {
            "setup_s": f"median of n={len(setups)}",
            "wall_s": f"median of n={len(walls)} campaigns",
            "rate_per_s": "pool targets per second",
            "p50_ms": f"per scan, n={len(scans)}",
            "tail_ms": f"p{tail_pct:g} per scan, n={len(scans)}",
        },
        "raw_wall_s": statistics.median(series[id(e)].raw(e["run"]) for e in plain),
        "kernel_ms": 1000 * statistics.median(s.kernel_median() for s in series.values()),
    }
    traced = [e for e in episodes if e["traced"]]
    if traced:
        layers = [campaign_layers(e, series[id(e)]) for e in traced]
        record["per_layer"] = {
            name: statistics.median(layer[name] for layer in layers)
            for name in layers[0]
        }
        # counts repeat exactly across episodes (check() holds them to it)
        record["per_layer"].update(traced[0]["layer_counts"])
        record["per_layer"]["trace.overhead"] = statistics.median(
            wrapper_overhead(e, series[id(e)]) for e in traced)
        ratio = statistics.median(
            series[id(e)].scale(e["run"]) for e in traced) / record["end_to_end"]["wall_s"]
        record["notes"]["trace.overhead"] = (
            f"wrapper cost; traced / untraced wall_s - 1 = {ratio - 1:+.4f}, "
            f"episode-to-episode noise included")
    return record, episodes


def wrapper_overhead(episode, speed) -> float:
    """The wrappers' cost as a share of the untraced campaign.

    The per-call cost of a wrapper, timed on a no-op in the same process,
    times the campaign's wrapped calls.  Unlike the ratio of a traced to
    an untraced episode it holds no episode-to-episode noise.
    """
    probe = episode["wrapper_probe"]
    per_call = (speed.scale(probe["wrapped"]) - speed.scale(probe["bare"])) / probe["calls"]
    added = per_call * episode["wrapped_calls"]
    return added / (speed.scale(episode["run"]) - added)


def campaign_layers(episode, speed) -> Dict[str, float]:
    """Per-layer metrics of one traced campaign episode."""
    layers = {metric: 0.0 for metric in LAYER_ENTRIES.values()}
    for entry, metric in LAYER_ENTRIES.items():
        layers[metric] += speed.total(episode["layers"].get(entry, []))
    engine = episode["layers"]["ScanEngine.scan_all_protocols"]
    engine_raw = sum(b - a for a, b in engine)
    # chunk durations are observed raw inside the engine calls; they
    # take the engine calls' speed factor
    chunk = episode["chunk_raw_s"] * layers["engine.scan_s"] / engine_raw
    layers.update(episode["layer_counts"])
    layers.update({
        "simnet.build_s": speed.scale(episode["build"]),
        "engine.chunk_s": chunk,
        "engine.merge_s": layers["engine.scan_s"] - chunk,
        "engine.targets_per_s": layers["engine.targets"] / layers["engine.scan_s"],
        "service.residual_s": speed.scale(episode["run"]) - speed.total(episode["covered"]),
        "fsync.calls": len(episode["flushes"]),
    })
    return layers


def scaled_latencies(speed, intervals, latencies_ns) -> List[float]:
    """Request latencies in reference seconds, each run at its own speed.

    ``intervals[i]`` is the interval of run ``i`` and ``latencies_ns[i]``
    the latencies of its requests.
    """
    scaled = []
    for interval, run in zip(intervals, latencies_ns):
        factor = speed.factor(*interval) * 1e-9
        scaled.extend(ns * factor for ns in run)
    return scaled


def serve_metrics(runs):
    """End-to-end (and, given traced episodes, per-layer) serving metrics.

    The batches of all untraced episodes are pooled.  Latency
    percentiles are taken per batch of 10 000 requests and then their
    median over batches, so a batch that met a stall of the host moves
    no percentile by more than one batch's worth.
    """
    series = {id(run): SpeedSeries(run["speed"], run["flushes"]) for run in runs}
    episodes = [e for e in runs if "extra_setup" not in e]
    plain = [e for e in episodes if not e["traced"]]
    batches = [scaled_latencies(series[id(e)], parts, ns)
               for e in plain for parts, ns in zip(e["batches"], e["batch_latencies_ns"])]
    walls = [series[id(e)].total(parts) for e in plain for parts in e["batches"]]
    setups = [series[id(e)].scale(e["setup"]) for e in runs]
    rate = statistics.median(len(batch) / wall for batch, wall in zip(batches, walls))
    tail_pct = highest_supported(len(batches[0]))
    record = {
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "rate_per_s": rate,
            "p50_ms": 1000 * statistics.median(percentile(b, 50) for b in batches),
            "tail_ms": 1000 * statistics.median(percentile(b, tail_pct) for b in batches),
            "peak_rss_mb": statistics.median(e["rss_mb"] for e in plain),
        },
        "notes": {
            "setup_s": f"median of n={len(setups)}",
            "wall_s": f"median of n={len(walls)} batches of {len(batches[0])} requests "
                      f"from {len(plain)} client/server pairs",
            "rate_per_s": f"requests per second, median of n={len(walls)} batches",
            "p50_ms": f"per request, median over n={len(walls)} batches",
            "tail_ms": f"p{tail_pct:g} per request, median over n={len(walls)} batches",
            "peak_rss_mb": "client and server",
        },
        "raw_wall_s": statistics.median(
            sum(series[id(e)].raw(run) for run in parts) for e in plain for parts in e["batches"]),
        "kernel_ms": 1000 * statistics.median(s.kernel_median() for s in series.values()),
    }
    traced = [e for e in episodes if e["traced"]]
    if traced:
        episode = traced[0]
        speed = series[id(episode)]
        app_passes = list(zip(episode["app_passes"], episode["app_latencies_ns"]))
        passes = [scaled_latencies(speed, [interval], [ns]) for interval, ns in app_passes]
        app_rps = statistics.median(len(ns) / speed.scale(interval) for interval, ns in app_passes)
        scraped = episode["scraped"]
        hits = scraped.get("repro_serve_cache_blob_hits_total", 0.0)
        misses = scraped.get("repro_serve_cache_blob_misses_total", 0.0)
        record["per_layer"] = {
            "app.handle_rps": app_rps,
            "app.handle_p50_us": 1e6 * statistics.median(percentile(p, 50) for p in passes),
            "app.handle_p99_us": 1e6 * statistics.median(percentile(p, 99) for p in passes),
            "transport.efficiency": rate / app_rps,
            "transport.us_per_req": 1e6 / rate - 1e6 / app_rps,
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "gzip.compressions": int(scraped.get("repro_serve_gzip_compress_total", 0)),
            # the server is observed from outside its process: nothing
            # in it is wrapped, so tracing adds no cost
            "trace.overhead": 0.0,
        }
    return record, episodes


def check(workload: str, seed: int, episodes) -> List[str]:
    """Episode errors, agreement between episodes, pinned outputs."""
    problems = [f"{workload}: {error}" for e in episodes for error in e["errors"]]
    first = episodes[0]
    for index, episode in enumerate(episodes[1:], 1):
        kind = "traced" if episode["traced"] != first["traced"] else "repeated"
        if episode["digest"] != first["digest"]:
            problems.append(f"{workload}: digest of {kind} episode {index} "
                            f"differs from episode 0")
        for key, value in first["counts"].items():
            if episode["counts"].get(key) != value:
                problems.append(f"{workload}: counts.{key} of {kind} episode {index} is "
                                f"{episode['counts'].get(key)}, episode 0 has {value}")
    pinned = json.loads(PINNED.read_text())
    want = pinned.get(workload, {}).get(str(seed))
    if want is not None:
        if first["digest"] != want["digest"]:
            problems.append(f"{workload}: seed {seed}: digest {first['digest']} "
                            f"differs from pinned {want['digest']}")
        for key, value in want["counts"].items():
            if first["counts"].get(key) != value:
                problems.append(f"{workload}: seed {seed}: counts.{key} is "
                                f"{first['counts'].get(key)}, pinned {value}")
    full = pinned.get("steady", {}).get(str(seed))
    if workload == "incremental" and full is not None and first["digest"] != full["digest"]:
        problems.append(f"incremental: seed {seed}: final hitlist digest differs "
                        f"from the full-mode (steady) digest")
    return problems


def run_workload(workload: str, seed: int, trace: bool, bench):
    runs = episodes_for(workload, seed, bench["run_seconds"], trace)
    if workload == "serve":
        record, episodes = serve_metrics(runs)
    else:
        # a campaign that skipped a wrapped entry point has no trustworthy
        # timings: name the entry point instead of reporting any
        broken = [f"{workload}: {error}" for run in runs for error in run.get("errors", ())]
        if broken:
            raise BenchmarkError("\n".join(broken))
        record, episodes = campaign_metrics(runs)
    if trace:
        # layers this workload does not exercise read 0
        record["per_layer"] = {
            metric["name"]: record["per_layer"].get(metric["name"], 0.0)
            for metric in bench["per_layer"]
        }
    record.update({
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "problems": check(workload, seed, episodes),
        "attempted": sum(e["attempted"] for e in episodes),
        "failed": sum(e["failed"] for e in episodes),
        "outputs": {"digest": episodes[0]["digest"], "counts": episodes[0]["counts"]},
    })
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="must equal BENCHMARK.json's run_seconds, which every "
                             "run measures for")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="append one JSON record per workload to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = spec.load()
    known = [workload["name"] for workload in bench["workloads"]]
    workloads = args.workloads or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {known}")
    if args.seconds is not None and args.seconds != bench["run_seconds"]:
        parser.error(f"--seconds {args.seconds:g}: runs measure for run_seconds "
                     f"= {bench['run_seconds']} of BENCHMARK.json")
    unit = spec.units(bench)

    records = []
    for workload in workloads:
        try:
            record = run_workload(workload, args.seed, bool(args.trace), bench)
        except BenchmarkError as error:
            print(f"benchmark: {error}", file=sys.stderr)
            return 1
        records.append(record)
        shown = dict(record["end_to_end"], **record.get("per_layer", {}))
        for name, value in shown.items():
            note = record["notes"].get(name)
            print(f"{workload} {name} {value!r} {unit[name]}" + (f"  # {note}" if note else ""))
        print(f"{workload} raw_wall_s {record['raw_wall_s']!r} s  # unscaled median; "
              f"kernel median {record['kernel_ms']:.4f} ms")
        if args.json is not None:
            with args.json.open("a") as handle:
                handle.write(json.dumps(record) + "\n")

    problems = [problem for record in records for problem in record["problems"]]
    for problem in problems:
        print(f"MISMATCH {problem}", file=sys.stderr)
    key = "per_layer" if args.trace else "end_to_end"
    prefix = len(records) > 1
    metrics = {
        (f"{r['workload']}." if prefix else "") + name: {"value": value, "unit": unit[name]}
        for r in records for name, value in r[key].items()
    }
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
