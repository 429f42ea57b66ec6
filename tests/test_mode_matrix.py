"""Generated mode matrix: every combination of the campaign modes runs
through ``repro-cli scenario run`` and resumes byte-identically.

The axes are the modes a campaign can combine: pacing {fixed,
self-paced} x faults {none, all four fault kinds} x vantages {1, 3} x
scan mode {full, incremental} x publishing {off, on}.  Each cell runs a
21-day campaign with per-scan checkpoints, then resumes from a
checkpoint drawn from the middle of the run.  The resumed run's
``summary.json``, deterministic metrics, ``responsive.txt`` and publish
store must equal the uninterrupted run's, byte for byte.  Checkpoint
bytes written after a resume are not compared; their decoded state is,
in ``tests/runtime/test_resume_checkpoints.py``.

All cells share one built world: world generation is a pure function
of the config, so rebuilding it per run would only cost time.  For the
same reason the report and figure writers are skipped: they read only
the finished history, which ``summary.json`` already compares.
"""

import itertools
import os
import shutil
import zlib

import pytest

import repro.cli
import repro.simnet
from repro.hitlist.service import HitlistService
from repro.scenario import artifact_to_json
from repro.scenario.expand import expand_document

DAYS, INTERVAL = 21, 7

#: at 2 000 probes a day the small world's ~2.9 k-target pool takes
#: 8 days to scan, so self-paced scans drift off the 7-day grid
PACINGS = {
    "fixed": {},
    "self-paced": {"probes_per_day": 2_000},
}

#: the CI fault-smoke plan's four fault kinds, with their windows moved
#: inside the run: the outage covers the second scan under either pacing
FAULTS = {
    "no-faults": None,
    "faults": {
        "seed": 7,
        "vantage_outages": [{"start_day": 6, "end_day": 9}],
        "rate_limits": [{"asn": 1, "budget": 5, "protocols": ["ICMP"]}],
        "loss_bursts": [{"start_day": 12, "end_day": 18, "loss_rate": 0.5}],
        "source_outages": [{"source": "atlas", "start_day": 2, "end_day": 10}],
    },
}

VANTAGES = {"1-vantage": ["--vantages", "1"], "3-vantages": ["--vantages", "3"]}
SCAN_MODES = {"full": ["--scan-mode", "full"],
              "incremental": ["--scan-mode", "incremental"]}
PUBLISH = {"no-publish": False, "publish": True}

CELLS = [
    pytest.param(pacing, faults, vantages, mode, publish,
                 id="-".join((pacing, faults, vantages, mode, publish)))
    for pacing, faults, vantages, mode, publish in itertools.product(
        PACINGS, FAULTS, VANTAGES, SCAN_MODES, PUBLISH)
]


@pytest.fixture(scope="module")
def shared_world():
    """Build each distinct world once for every run in this module, and
    skip the report and figure writers."""
    real_build = repro.simnet.build_internet
    worlds = {}

    def build_once(config):
        key = repr(config)
        if key not in worlds:
            worlds[key] = real_build(config)
        return worlds[key]

    with pytest.MonkeyPatch.context() as patch:
        # the launcher builds through repro.cli, a resume through
        # repro.simnet
        patch.setattr(repro.cli, "build_internet", build_once)
        patch.setattr(repro.simnet, "build_internet", build_once)
        patch.setattr(repro.cli, "full_report", lambda history: "")
        patch.setattr(repro.cli, "export_all_figures", lambda *args: None)
        yield


def _artifact(tmp_path, pacing, faults):
    document = {
        "title": f"mode matrix: {pacing}, {faults}",
        "base": "small",
        "run": {"days": DAYS, "interval": INTERVAL},
        "settings": dict(PACINGS[pacing]),
    }
    if FAULTS[faults] is not None:
        document["faults"] = FAULTS[faults]
    path = tmp_path / "cell.json"
    path.write_text(artifact_to_json(
        expand_document(document, name="mode-matrix")), encoding="ascii")
    return path


def _tree(root):
    """Every file under ``root`` with its exact bytes."""
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = handle.read()
    return out


@pytest.mark.parametrize("pacing,faults,vantages,mode,publish", CELLS)
def test_cell_resumes_byte_identically(
    shared_world, monkeypatch, tmp_path, pacing, faults, vantages, mode,
    publish,
):
    cell = "-".join((pacing, faults, vantages, mode, publish))
    artifact = _artifact(tmp_path, pacing, faults)
    flags = VANTAGES[vantages] + SCAN_MODES[mode]
    if FAULTS[faults] is not None:
        flags += ["--retry-attempts", "2"]
    store = tmp_path / "store"
    if PUBLISH[publish]:
        flags += ["--publish-dir", str(store)]
    # the cut: resume after scan 1 or 2 of the 3-4 scans, drawn per cell
    cut = 1 + zlib.crc32(cell.encode()) % 2

    # keep the store as it stood at the cut, for the resumed run to
    # continue publishing into
    scans = []
    run_scan = HitlistService.run_scan

    def counting_run_scan(self, day, prev_day, force_full=False):
        if len(scans) == cut and PUBLISH[publish]:
            shutil.copytree(store, tmp_path / "store-at-cut")
        scans.append(day)
        return run_scan(self, day, prev_day, force_full=force_full)

    monkeypatch.setattr(HitlistService, "run_scan", counting_run_scan)
    full = tmp_path / "full"
    assert repro.cli.main([
        "scenario", "run", str(artifact), *flags,
        "--checkpoint-dir", str(tmp_path / "ckpt"),
        "--metrics-json", str(tmp_path / "full.json"), "-o", str(full),
    ]) == 0
    monkeypatch.setattr(HitlistService, "run_scan", run_scan)

    fixed_days = list(range(0, DAYS + 1, INTERVAL))
    if pacing == "fixed":
        assert scans == fixed_days
    else:
        assert scans != fixed_days
        assert max(b - a for a, b in zip(scans, scans[1:])) > INTERVAL
    checkpoints = sorted((tmp_path / "ckpt").glob("*.ckpt"))
    assert len(checkpoints) == len(scans) > cut

    resumed = tmp_path / "resumed"
    resume_argv = ["scenario", "run", str(artifact),
                   "--resume", str(checkpoints[cut - 1]),
                   "--metrics-json", str(tmp_path / "resumed.json"),
                   "-o", str(resumed)]
    if PUBLISH[publish]:
        resume_argv += ["--publish-dir", str(tmp_path / "store-at-cut")]
    assert repro.cli.main(resume_argv) == 0

    for name in ("summary.json", "responsive.txt"):
        assert (resumed / name).read_bytes() == (full / name).read_bytes(), name
    assert (tmp_path / "resumed.json").read_bytes() == (
        tmp_path / "full.json").read_bytes()
    if PUBLISH[publish]:
        assert _tree(tmp_path / "store-at-cut") == _tree(store)
