"""Differential oracle: the scheduler's loss replay against the fused scan.

A carried prefix merges bit-identically to a real probe only if
``IncrementalScheduler._replay`` (a lane pass of its loss model)
reproduces, per target and protocol, exactly which probes
``ZMapScanner``'s fused chunk scan lets through.
Each generated case is checked three ways: the lane-pass replay, the
pre-change scalar ``_survivors`` (kept in the frozen reference
scheduler), and the scanner itself on a world in which every target
answers every protocol, so a response is a survival.  The generated
test draws at least 60 examples, more under the ``ci`` profile.
"""

from typing import List, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime.faults import FaultPlan, LossBurst, RetryPolicy
from repro.scan.engine import FAST_PROTOCOLS
from repro.scan.loss import LossModel
from repro.scan.scheduler import BIT_UDP53, IncrementalScheduler
from repro.scan.zmap import ZMapScanner
from repro.simnet.hosts import DnsBehavior

from tests.scan._scheduler_reference import ReferenceScheduler

LOSS_RATES = (0.0, 0.03, 0.5, 1.0)
#: a name no firewall era censors, so the engine draws no injections
QNAME = "replay.example"
#: every mask bit the engine reads (ICMP, TCP/80, TCP/443, UDP/443)
ALL_PROTOCOLS_MASK = 0xFF


class _AnsweringWorld:
    """The simulated world, except every target answers every probe."""

    def __init__(self, world) -> None:
        self._world = world

    def __getattr__(self, name):
        return getattr(self._world, name)

    def probe_batch_arrays(self, targets, day, qname):
        count = len(targets)
        return (
            [ALL_PROTOCOLS_MASK] * count,
            [None] * count,
            [DnsBehavior.NOT_DNS] * count,
        )


def _fault_plan(burst: bool, day: int, seed: int) -> Optional[FaultPlan]:
    if not burst:
        return None
    return FaultPlan(seed=seed, bursts=(LossBurst(day - 1, day + 1, 0.3),))


def _engine_survivors(world, targets: List[int], day: int, seed: int,
                      loss_rate: float, attempts: int,
                      plan: Optional[FaultPlan]) -> List[int]:
    """Survivor masks as the engine's fused chunk scan draws them."""
    scanner = ZMapScanner(
        _AnsweringWorld(world), loss_rate=loss_rate, seed=seed,
        fault_plan=plan, retry=RetryPolicy(attempts=attempts),
    )
    results, udp53 = scanner.scan_all_protocols(targets, day, QNAME)
    assert not any(udp53.responses.columns().counts)
    found = [results[protocol].responders for protocol in FAST_PROTOCOLS]
    return [
        sum(1 << index for index, hits in enumerate(found) if target in hits)
        | (BIT_UDP53 if target in udp53.responders else 0)
        for target in targets
    ]


def _check(world, targets, day, seed, loss_rate, attempts, burst):
    plan = _fault_plan(burst, day, seed)
    kwargs = dict(seed=seed, loss_rate=loss_rate, retry_attempts=attempts,
                  fault_plan=plan)
    loss = LossModel(seed, loss_rate, attempts, plan)
    replayed = IncrementalScheduler(loss=loss)._replay(targets, day)
    reference = ReferenceScheduler(**kwargs)
    assert replayed == [reference._survivors(target, day) for target in targets]
    if loss_rate < 1.0:  # the scanner rejects certain loss
        assert replayed == _engine_survivors(
            world, targets, day, seed, loss_rate, attempts, plan
        )
    return replayed


addresses = st.integers(min_value=0, max_value=(1 << 128) - 1)


@settings(max_examples=max(60, settings.default.max_examples), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    targets=st.lists(addresses, min_size=1, max_size=80, unique=True),
    day=st.integers(min_value=1, max_value=4000),
    seed=st.integers(min_value=0, max_value=(1 << 32) - 1),
    loss_rate=st.sampled_from(LOSS_RATES),
    attempts=st.integers(min_value=1, max_value=3),
    burst=st.booleans(),
)
def test_replay_matches_engine_and_scalar_reference(
    small_world, targets, day, seed, loss_rate, attempts, burst
):
    _check(small_world, targets, day, seed, loss_rate, attempts, burst)


@pytest.mark.parametrize("loss_rate", LOSS_RATES)
@pytest.mark.parametrize("attempts", (1, 2, 3))
@pytest.mark.parametrize("burst", (False, True))
def test_replay_grid(small_world, loss_rate, attempts, burst):
    """Every (loss, retries, burst) cell on a lane count that is not a
    power of two, with both loss kinds actually firing where they can."""
    targets = [(0x2001 << 112) | (n * 0x9E3779B97F4A7C15) % (1 << 80) for n in range(300)]
    masks = _check(small_world, targets, 42, 7, loss_rate, attempts, burst)
    if loss_rate == 0.0 and not burst:
        assert set(masks) == {0x1F}
    if loss_rate == 1.0:
        assert set(masks) == {0}
    if loss_rate == 0.5 and attempts == 1:
        # partial fast nibbles and lost UDP/53 probes both occur
        assert any(0 < mask & 0x0F < 0x0F for mask in masks)
        assert any(not mask & BIT_UDP53 for mask in masks)
    if burst and loss_rate < 1.0:
        plan = _fault_plan(True, 42, 7)
        lost = [plan.burst_lost(target, 42) for target in targets]
        assert any(lost) and not all(lost)
        assert all(mask == 0 for mask, dead in zip(masks, lost) if dead)


def test_replay_of_nothing():
    assert IncrementalScheduler(loss=LossModel(1))._replay([], 5) == []
