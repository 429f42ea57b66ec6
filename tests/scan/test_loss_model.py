"""``LossModel`` against a scalar spelling of the loss formulas.

The fused scan chunk, the APD wave and the scheduler's replay all draw
probe loss through :class:`repro.scan.loss.LossModel`.  Here each
target's merged survivors and first surviving attempt are checked, per
draw, against one ``mix64`` chain per (target, attempt) written out
below; so are the burst filter, the retry counts and the scheduler's
five-probe survivor bytes built from the model's draws.  The last tests pin which model the service's scheduler
holds.
"""

from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import mix64
from repro.hitlist.service import HitlistService, ServiceSettings
from repro.protocols import Protocol
from repro.runtime.faults import RETRY_SALT, FaultPlan, LossBurst
from repro.scan.loss import FAST_SALT, Lanes, LossModel
from repro.scan.scheduler import BIT_UDP53, IncrementalScheduler
from repro.simnet import small_config

_M64 = 0xFFFFFFFFFFFFFFFF
LOSS_RATES = (0.0, 0.03, 0.5, 1.0)
#: the 64-bit draws the probers take besides the fused fast one
PROTOCOLS = (Protocol.UDP53, Protocol.ICMP, Protocol.TCP80)


def _reference(target, day, seed, loss_rate, attempts, protocol):
    """(merged survivors, first attempt through or None) of one target
    under the fused fast draw (``protocol`` None) or a 64-bit draw."""
    fast = protocol is None
    salt = FAST_SALT if fast else int(protocol)
    full = 0x0F if fast else 0x01
    got = 0
    first: Optional[int] = None
    for attempt in range(attempts):
        base = (target & _M64) ^ (target >> 64)
        draw = mix64(
            base ^ mix64((day << 8) ^ salt ^ seed ^ ((attempt * RETRY_SALT) & _M64))
        )
        if fast:
            threshold = int(loss_rate * 65536.0)
            survived = sum(
                1 << index for index in range(4)
                if (draw >> (16 * index)) & 0xFFFF >= threshold
            )
        else:
            survived = int(draw >= int(loss_rate * float(1 << 64)))
        got |= survived
        if got == full and first is None:
            first = attempt
    return got, first


def _check_draw(survivors, targets, day, seed, loss_rate, attempts, protocol=None):
    """Assert ``survivors`` against the reference; the reference pairs."""
    expected = [
        _reference(target, day, seed, loss_rate, attempts, protocol)
        for target in targets
    ]
    assert list(survivors.merged()) == [got for got, _ in expected]
    assert [survivors.first_attempt(i) for i in range(len(targets))] == [
        first for _, first in expected
    ]
    # the retry count of a flagged subset: each target's first attempt,
    # attempts - 1 for one never through
    counted = bytes(i % 3 != 1 for i in range(len(targets)))
    assert survivors.retries(counted) == sum(
        attempts - 1 if first is None else first
        for (_, first), flag in zip(expected, counted) if flag
    )
    return expected


def _plan(burst: bool, day: int, seed: int) -> Optional[FaultPlan]:
    if not burst:
        return None
    return FaultPlan(seed=seed, bursts=(LossBurst(day - 2, day + 2, 0.4),))


addresses = st.integers(min_value=0, max_value=(1 << 128) - 1)


@settings(max_examples=max(60, settings.default.max_examples), deadline=None)
@given(
    # lane counts padded to the next power of two, never one already
    targets=st.lists(addresses, min_size=3, max_size=120, unique=True).filter(
        lambda targets: len(targets) & (len(targets) - 1)
    ),
    day=st.integers(min_value=2, max_value=4000),
    seed=st.integers(min_value=0, max_value=(1 << 32) - 1),
    loss_rate=st.sampled_from(LOSS_RATES),
    attempts=st.integers(min_value=1, max_value=3),
    burst=st.booleans(),
)
def test_draws_match_scalar_reference(targets, day, seed, loss_rate, attempts, burst):
    plan = _plan(burst, day, seed)
    model = LossModel(seed, loss_rate, attempts, plan)
    loss = model.on(day)
    lanes = Lanes(targets)
    fast = _check_draw(loss.fast(lanes), targets, day, seed, loss_rate, attempts)
    draws = {
        protocol: _check_draw(
            loss.draw(lanes, protocol), targets, day, seed, loss_rate, attempts, protocol
        )
        for protocol in PROTOCOLS
    }
    lost = [plan is not None and plan.burst_lost(target, day) for target in targets]
    assert loss.unburst(targets) == [t for t, dead in zip(targets, lost) if not dead]
    assert IncrementalScheduler(loss=model)._replay(targets, day) == [
        0 if dead else got | udp * BIT_UDP53
        for (got, _), (udp, _), dead in zip(fast, draws[Protocol.UDP53], lost)
    ]


@pytest.mark.parametrize("loss_rate", LOSS_RATES)
@pytest.mark.parametrize("attempts", (1, 2, 3))
@pytest.mark.parametrize("burst", (False, True))
def test_draw_grid(loss_rate, attempts, burst):
    """Every (loss, attempts, burst) cell at 300 lanes, with retries and
    bursts actually firing where they can."""
    targets = [(0x2001 << 112) | (n * 0x9E3779B97F4A7C15) % (1 << 80) for n in range(300)]
    plan = _plan(burst, 42, 7)
    loss = LossModel(7, loss_rate, attempts, plan).on(42)
    lanes = Lanes(targets)
    fast = _check_draw(loss.fast(lanes), targets, 42, 7, loss_rate, attempts)
    udp = _check_draw(
        loss.draw(lanes, Protocol.UDP53), targets, 42, 7, loss_rate, attempts,
        Protocol.UDP53,
    )
    if loss_rate == 0.0:
        # lossless: nothing packed, nothing retried
        assert lanes._packed is None
        assert loss.fast(lanes).retries() == loss.draw(lanes, Protocol.UDP53).retries() == 0
    if loss_rate == 0.03 and attempts > 1:
        assert any(first not in (None, 0) for _, first in fast + udp)
    if loss_rate == 1.0:
        assert {got for got, _ in fast + udp} == {0}
    kept = loss.unburst(targets)
    if burst:
        assert 0 < len(kept) < len(targets)
    else:
        assert kept is targets


def test_model_checks_its_configuration():
    assert LossModel(loss_rate=1.0).on(0).threshold64 == 1 << 64
    with pytest.raises(ValueError, match="loss rate out of range"):
        LossModel(loss_rate=1.5)
    with pytest.raises(ValueError, match="attempts"):
        LossModel(attempts=0)


def _service(world, vantages: int) -> HitlistService:
    config = small_config()
    plan = FaultPlan(seed=config.seed, bursts=(LossBurst(10, 20, 0.3),))
    return HitlistService(
        world, config,
        settings=ServiceSettings(
            gfw_filter_deploy_day=config.gfw_filter_deploy_day,
            scan_mode="incremental", vantages=vantages, retry_attempts=2,
        ),
        fault_plan=plan,
    )


def test_solo_scheduler_holds_member_zeros_model(small_world):
    service = _service(small_world, 1)
    assert service.scheduler.loss == service.engine.loss
    assert service.scheduler.loss == LossModel(
        service.config.seed, service.settings.loss_rate, 2, service.fault_plan
    )


def test_fleet_scheduler_holds_the_coordinators_model(small_world):
    """With three vantages member 0 draws from its own seed and a
    re-salted plan; the replay keeps the campaign seed and the unscoped
    plan."""
    service = _service(small_world, 3)
    loss, member = service.scheduler.loss, service.engine.loss
    assert loss.seed == service.config.seed != member.seed
    assert loss.fault_plan is service.fault_plan
    assert member.fault_plan != service.fault_plan
    assert (loss.loss_rate, loss.attempts) == (member.loss_rate, member.attempts)
