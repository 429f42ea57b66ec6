"""Shared helpers for recording benchmark wall times.

Both the pytest benches (via ``conftest.once``) and the standalone CI
perf-smoke script (``bench_service_runtime.py``) funnel their timings
through :func:`record_bench_time`, so every ``results/BENCH_*.json``
file has the same shape: each sample carries the scenario scale and the
git revision it was measured at, and the history is capped so the files
stay reviewable.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
from typing import Optional

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: The magnitude scale of the default scenario relative to the paper
#: (address counts ≈ paper / 1000, prefix counts ≈ paper / 100).
ADDRESS_SCALE = 1_000
PREFIX_SCALE = 100

#: Keep at most this many samples per bench so BENCH_*.json stays small.
MAX_RUNS = 50


def git_revision() -> Optional[str]:
    """The short git revision of the repo, or None outside a checkout.

    ``+dirty`` marks a work tree whose tracked files differ from that
    revision, so a sample measured before its change is committed does
    not claim the parent's revision.
    """

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", *args],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )

    try:
        rev = git("rev-parse", "--short", "HEAD")
        if rev.returncode != 0 or not rev.stdout.strip():
            return None
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return None
    revision = rev.stdout.strip()
    if status.returncode == 0 and status.stdout.strip():
        revision += "+dirty"
    return revision


def record_bench_time(
    name: str,
    seconds: float,
    scenario: str = "default",
    extra: Optional[dict] = None,
) -> pathlib.Path:
    """Append one wall-time sample to ``results/BENCH_<name>.json``.

    Each sample records the scenario scale and git revision alongside the
    timing, so a trajectory of samples remains interpretable after scale
    or code changes.  History is capped at :data:`MAX_RUNS` samples.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    runs = []
    if path.exists():
        try:
            runs = json.loads(path.read_text()).get("runs", [])
        except ValueError:
            runs = []
    sample = {
        "seconds": seconds,
        "scale": {
            "scenario": scenario,
            "address_scale": ADDRESS_SCALE,
            "prefix_scale": PREFIX_SCALE,
        },
        "revision": git_revision(),
    }
    if extra:
        sample.update(extra)
    runs.append(sample)
    runs = runs[-MAX_RUNS:]
    path.write_text(json.dumps({"name": name, "runs": runs}, indent=2) + "\n")
    return path


def load_latest(name: str) -> Optional[dict]:
    """The most recent sample for ``name``, or None if never recorded."""
    path = RESULTS_DIR / f"BENCH_{name}.json"
    if not path.exists():
        return None
    try:
        runs = json.loads(path.read_text()).get("runs", [])
    except ValueError:
        return None
    return runs[-1] if runs else None
