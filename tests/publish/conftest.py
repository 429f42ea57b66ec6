"""Shared fixtures: a small synthetic snapshot store.

The synthetic store is cheap (no pipeline run) but structurally
faithful: sorted-unique address artifacts with day-to-day churn, an
aliased prefix list, and an origins map, committed in scan order as the
pipeline would.
"""

import contextlib
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.net.address import format_ipv6
from repro.publish.store import SnapshotStore


def address_artifact(values):
    return "".join(format_ipv6(value) + "\n" for value in sorted(set(values)))


def day_addresses(day):
    """A deterministic responsive set with churn between days."""
    base = {0x2001_0DB8 << 96 | n for n in range(50)}
    churn_in = {0x2001_0DB8 << 96 | (1000 + day * 7 + n) for n in range(day)}
    churn_out = {0x2001_0DB8 << 96 | n for n in range(day % 5)}
    return (base | churn_in) - churn_out


@pytest.fixture()
def store(tmp_path):
    return SnapshotStore(str(tmp_path / "store"))


@pytest.fixture()
def populated_store(store):
    """Five snapshots (days 0,2,4,6,8), committed chronologically."""
    for day in (0, 2, 4, 6, 8):
        icmp = {a for a in day_addresses(day) if a % 3 != 0}
        store.commit(day, {
            "responsive": address_artifact(day_addresses(day)),
            "icmp": address_artifact(icmp),
            "aliased": "2001:db8:dead::/48\n" if day >= 4 else "",
            "origins": "".join(
                f"{format_ipv6(a)} {64500 + a % 3}\n"
                for a in sorted(day_addresses(day))
            ),
        })
    return store


@contextlib.contextmanager
def cli_server(store_root, port_file, *flags):
    """``python -m repro.cli serve`` over ``store_root`` in a subprocess.

    Yields the bound port once the server has written ``port_file``;
    on exit sends SIGTERM and asserts a clean (status 0) shutdown.
    """
    repo_root = pathlib.Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(repo_root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    ).rstrip(os.pathsep)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--store", store_root,
         "--port", "0", "--port-file", str(port_file), *flags],
        env=env, cwd=str(repo_root),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 15.0
        while not (port_file.exists() and port_file.read_text().strip()):
            assert process.poll() is None, "serve exited prematurely"
            assert time.monotonic() < deadline, "serve never wrote its port"
            time.sleep(0.02)
        yield int(port_file.read_text())
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            assert process.wait(timeout=10) == 0
        except subprocess.TimeoutExpired:
            process.kill()
            raise
