"""The eviction watchlist comes out of the 30-day filter's pool walk.

Under incremental scheduling the service hands the scheduler, as
``must_probe``, every address that survived the 30-day filter and has
gone ``unresponsive_days - _LAST_CHANCE_DAYS`` raw days without a
response (scheduled-outage credits ignored).  The filter's own pass
collects it; here every plan's ``must_probe`` is checked against that
definition recomputed from the live service state, with vantage
outages long enough for outage credits to keep addresses alive past
the raw deadline, in single-vantage and fleet mode.
"""

import pytest

from repro.hitlist import HitlistService
from repro.hitlist.service import _LAST_CHANCE_DAYS, ServiceSettings
from repro.runtime.faults import FaultPlan, VantageOutage
from repro.simnet import build_internet, small_config

#: scans 13 days apart put addresses exactly on the 26-day horizon
SCAN_DAYS = list(range(0, 140, 13))


def _expected_watchlist(service, day):
    horizon = service.settings.unresponsive_days - _LAST_CHANCE_DAYS
    return {
        address
        for address in service.scan_pool
        if day - service._last_responsive.get(
            address, service._first_seen.get(address, day)
        ) >= horizon
    }


@pytest.mark.parametrize("vantages", (1, 3))
def test_must_probe_is_the_raw_day_watchlist(vantages):
    config = small_config()
    plan = FaultPlan(seed=7, outages=(
        VantageOutage(28, 41),
        VantageOutage(63, 63, vantage="vp1") if vantages > 1 else VantageOutage(63, 63),
    ))
    service = HitlistService(
        build_internet(config), config, fault_plan=plan,
        settings=ServiceSettings(
            gfw_filter_deploy_day=config.gfw_filter_deploy_day,
            scan_mode="incremental",
            vantages=vantages,
        ),
    )
    original = service.scheduler.plan
    seen = {"plans": 0, "watched": 0, "credited": 0, "on_horizon": 0}

    def checking_plan(day, pool, force_full=False, must_probe=None):
        expected = _expected_watchlist(service, day)
        assert must_probe == expected
        threshold = service.settings.unresponsive_days
        for address in expected:
            silent = day - service._last_responsive.get(
                address, service._first_seen.get(address, day)
            )
            # past the raw deadline, kept by outage credits
            seen["credited"] += silent > threshold
            seen["on_horizon"] += silent == threshold - _LAST_CHANCE_DAYS
        seen["plans"] += 1
        seen["watched"] += len(expected)
        return original(day, pool, force_full, must_probe=must_probe)

    service.scheduler.plan = checking_plan
    service.run(SCAN_DAYS)
    assert seen["plans"] > 0 and seen["watched"] > 0
    assert seen["credited"] > 0 and seen["on_horizon"] > 0


def test_full_mode_collects_no_watchlist():
    config = small_config()
    service = HitlistService(build_internet(config), config)
    assert service.scheduler is None
    service.run(SCAN_DAYS[:3])
    assert service._apply_30day_filter(SCAN_DAYS[3])[1] is None
