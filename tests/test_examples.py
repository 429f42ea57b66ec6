"""Smoke tests for the example scripts.

Each example runs as a subprocess, exactly as a user would invoke it.
The slower ones are gated behind ``RUN_EXAMPLES=1`` to keep the default
test suite fast; CI can enable them all.
"""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"

FAST = ["quickstart.py", "gfw_cleaning.py", "service_maintenance.py"]
SLOW = [
    "aliased_prefix_study.py",
    "target_generation.py",
]


def _run(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )


@pytest.mark.parametrize("script", FAST)
def test_fast_examples(script):
    result = _run(script)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()


@pytest.mark.parametrize("script", SLOW)
@pytest.mark.skipif(
    not os.environ.get("RUN_EXAMPLES"),
    reason="set RUN_EXAMPLES=1 to run the slower example scripts",
)
def test_slow_examples(script):
    result = _run(script)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()


def test_all_examples_listed():
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    assert on_disk == set(FAST) | set(SLOW)
