#!/usr/bin/env python3
"""Judge a change against its parent from alternating benchmark runs.

Usage::

    python3 benchmarks/suite/compare.py PARENT.jsonl CHANGE.jsonl

Both files hold the records ``run.py --json`` appends, one per workload
run; run at least ten parent/change pairs, alternating which side goes
first, with the same seeds on both sides.  A parent run and a change run
form a pair when they have the same workload and seed and the same
place among that seed's runs on their side; a run without a partner is
reported and left out.  For every workload and every end-to-end metric
of ``BENCHMARK.json`` the verdict is:

* ``gain`` - the change is better in at least 9/10 of the pairs (ties
  count for neither side) and the medians differ by more than the
  parent's interquartile distance;
* ``unresolved`` - the run-to-run spread of either side is wider than
  the metric's bound, unless every change run beats every parent run;
* ``REGRESSION`` - the change's median is worse than the parent's by
  more than the bound;
* ``same`` - otherwise.

A workload's failed/attempted share must not rise, and runs of one
seed must produce identical outputs on both sides.  Prints one row per
workload; exits 1 on any regression, rise in failures, output change or
unpaired run.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import spec  # noqa: E402
from stats import quartiles, spread  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Dict[str, object]:
    """Classify one metric on one workload (see the module docstring).

    ``parent[i]`` and ``change[i]`` are the two runs of pair ``i``.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = min(len(parent), len(change))
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    qa, qb = quartiles(parent), quartiles(change)
    gain = sign * (qb["median"] - qa["median"])
    relative = (qb["median"] - qa["median"]) / qa["median"] if qa["median"] else 0.0
    all_better = all(sign * (b - a) > 0 for a in parent for b in change)
    if (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs
            and gain > qa["q3"] - qa["q1"] and gain > 0):
        label = "gain"
    elif max(spread(parent), spread(change)) > bound and not all_better:
        label = "unresolved"
    elif -gain > bound * abs(qa["median"]):
        label = "REGRESSION"
    else:
        label = "same"
    return {"verdict": label, "relative": relative, "wins": wins, "pairs": pairs,
            "parent": qa, "change": qb}


def load(path: pathlib.Path) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if not record.get("trace"):
                runs.setdefault(record["workload"], []).append(record)
    return runs


def by_seed(runs: Sequence[dict]) -> Dict[Tuple[int, int], dict]:
    """Runs keyed by (seed, how many runs of that seed came before)."""
    keyed: Dict[Tuple[int, int], dict] = {}
    seen: Dict[int, int] = {}
    for run in runs:
        occurrence = seen.get(run["seed"], 0)
        seen[run["seed"]] = occurrence + 1
        keyed[run["seed"], occurrence] = run
    return keyed


def compare(parent: Dict[str, List[dict]], change: Dict[str, List[dict]],
            bench) -> List[Dict[str, object]]:
    rows = []
    for workload in sorted(set(parent) | set(change)):
        row: Dict[str, object] = {"workload": workload, "metrics": {}, "problems": []}
        rows.append(row)
        keyed = {"parent": by_seed(parent.get(workload, [])),
                 "change": by_seed(change.get(workload, []))}
        for side, other in (("parent", "change"), ("change", "parent")):
            for seed, occurrence in sorted(set(keyed[side]) - set(keyed[other])):
                row["problems"].append(
                    f"unpaired: {side} run {occurrence + 1} of seed {seed}")
        pairs = sorted(set(keyed["parent"]) & set(keyed["change"]))
        a = [keyed["parent"][key] for key in pairs]
        b = [keyed["change"][key] for key in pairs]
        if not pairs:
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            row["metrics"][name] = verdict(
                [r["end_to_end"][name] for r in a], [r["end_to_end"][name] for r in b],
                metric["better"], metric["bound"])
        share = {side: sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))
                 for side, runs in (("parent", a), ("change", b))}
        if share["change"] > share["parent"]:
            row["problems"].append(
                f"failed share rose from {share['parent']:.4g} to {share['change']:.4g}")
        for seed in sorted({r["seed"] for r in a}):
            if any(x.get("outputs") != y.get("outputs")
                   for x, y in zip(a, b) if x["seed"] == seed):
                row["problems"].append(f"seed {seed}: outputs differ from the parent's")
        if len(pairs) < MIN_PAIRS:
            row["problems"].append(f"only {len(pairs)} pairs; a gain needs {MIN_PAIRS}")
    return rows


def render(rows) -> str:
    lines = []
    for row in rows:
        cells = [
            f"{name} {m['verdict']} {100 * m['relative']:+.1f}% ({m['wins']}/{m['pairs']})"
            for name, m in row["metrics"].items()
        ]
        lines.append(f"{row['workload']}: " + " | ".join(cells + row["problems"]))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path)
    parser.add_argument("change", type=pathlib.Path)
    args = parser.parse_args(argv)
    rows = compare(load(args.parent), load(args.change), spec.load())
    print(render(rows))
    bad = any(
        m["verdict"] == "REGRESSION" for row in rows for m in row["metrics"].values()
    ) or any(
        not problem.startswith("only ") for row in rows for problem in row["problems"]
    )
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
