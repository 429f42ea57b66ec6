"""Pinned digests of faulted single-vantage campaigns.

``benchmarks/suite/pinned.json`` pins fault-free runs only.  These pins
cover the single vantage under every fault kind at once — a global
outage (stand-down plus the 30-day filter's outage credit), a rate
limit, a loss burst and a source outage — with retries, in full and
incremental mode.  A refactor of the probe path that shifts a seed, a
world view, a fault-plan lowering or a metric family by one bit moves
these digests.
"""

import hashlib
import json

import pytest

from repro.hitlist import HitlistService, ServiceSettings
from repro.hitlist.history_io import history_summary
from repro.obs import deterministic_metrics, registry_to_dict
from repro.runtime.faults import FaultPlan
from repro.simnet import build_internet

#: the CI fault-smoke job's faults.json
FAULTS = {
    "seed": 7,
    "vantage_outages": [{"start_day": 42, "end_day": 49}],
    "rate_limits": [{"asn": 1, "budget": 5, "protocols": ["ICMP"]}],
    "loss_bursts": [{"start_day": 70, "end_day": 84, "loss_rate": 0.5}],
    "source_outages": [{"source": "atlas", "start_day": 20, "end_day": 40}],
}
SCAN_DAYS = list(range(0, 92, 7))

#: scan mode -> (sha256 of history_summary, sha256 of deterministic metrics)
PINS = {
    "full": (
        "ddcaa662e33fc7e71ba947e03c1c3b24a709d01eff481d7f2886ae177bd915f6",
        "0bda9eace2265025041fb856a4f552de75eaa4e844dfd4cce9b3db7a1ab197bc",
    ),
    "incremental": (
        "3b5b54ee39add5f37ce068a8a4c96cfa805a5a36f0282465b9d5b112acbdb4f3",
        "6ed6d27546143d09583d5a29608c30c36c7dbf73978c4d7a2193f95928c20d8c",
    ),
}


def _digest(document) -> str:
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("scan_mode", sorted(PINS))
def test_faulted_single_vantage_outputs_pinned(config, scan_mode):
    settings = ServiceSettings(
        gfw_filter_deploy_day=config.gfw_filter_deploy_day,
        retry_attempts=2,
        scan_mode=scan_mode,
    )
    service = HitlistService(
        build_internet(config), config, settings=settings,
        fault_plan=FaultPlan.from_dict(FAULTS),
    )
    history = service.run(SCAN_DAYS)
    # every fault kind left its trace, so the pins cover them all
    degraded = {s.day: s.degraded for s in history.snapshots if s.degraded}
    assert degraded[42] == degraded[49] == ("vantage_outage",)
    assert degraded[28] == ("source:atlas",)
    assert all(s.vantage is None for s in history.snapshots)
    metrics = deterministic_metrics(registry_to_dict(service.metrics))
    assert (
        _digest(history_summary(history)), _digest(metrics)
    ) == PINS[scan_mode]
