"""Differential oracle: the incremental scheduler against its scalar reference.

``IncrementalScheduler`` keeps derived per-prefix state between scans
(the pool's /64 groups, refresh phases, member signatures and the day
from which each prefix's state-only carry conditions hold), skips
silent addresses in ``absorb`` and replays loss in lane passes.  The
frozen :class:`ReferenceScheduler` recomputes everything on every call.
Driven through the same generated multi-scan campaigns — pool churn
within and across /64s, ground-truth flaps, injection-only carry
entries, ``must_probe`` sets, /48 escalation, /40 renumbering,
``force_full``, retries and loss bursts — both must produce identical
plans, replays, cleaning mutations, metrics and checkpoint state after
every scan, also across a ``state_dict`` -> ``restore_state`` round
trip.  A last test swaps the reference into a real campaign.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gfw.filter import ScanCleaningResult
from repro.hitlist import HitlistService
from repro.hitlist.history_io import history_summary
from repro.hitlist.service import ServiceSettings
from repro.obs import deterministic_metrics, registry_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.runtime.faults import FaultPlan, LossBurst
from repro.scan.loss import LossModel
from repro.scan.scheduler import (
    _INJECTED_ONLY,
    BIT_INJECTED,
    BIT_UDP53,
    FAST_BITS,
    QUIET_AGE_DAYS,
    IncrementalScheduler,
)
from repro.scan.zmap import ScanResult, Udp53Result
from repro.simnet import build_internet, small_config

from tests.scan._scheduler_reference import ReferenceScheduler

_BASE = 0x20010DB8 << 32


def _prefix(g40: int, g48: int, p64: int) -> int:
    """A /64 in one of a few /40s and /48s, so escalation and rotation
    groups hold several prefixes."""
    return _BASE | (g40 << 24) | (g48 << 16) | p64


@dataclass
class Step:
    gap: int
    #: addresses toggled in or out of the pool before the plan
    churn: List[int]
    #: addresses whose ground truth changes, with the new mask
    flips: List[Tuple[int, int]]
    #: /40 group silenced at once (CPE renumbering), if any
    renumber: Optional[int]
    force_full: bool
    must_probe: Optional[List[int]]


@st.composite
def campaigns(draw):
    prefixes = draw(st.lists(
        st.builds(_prefix, st.integers(0, 1), st.integers(0, 3), st.integers(0, 5)),
        min_size=1, max_size=18, unique=True,
    ))
    universe = sorted({
        (prefix << 64) | iid
        for prefix in prefixes
        for iid in draw(st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True))
    })
    # mostly silent space, some responders, some injection-only hosts
    masks = st.sampled_from([0] * 8 + [0x01, 0x03, 0x1F, 0x10, _INJECTED_ONLY, 0x11])
    truth = {address: draw(masks) for address in universe}
    # a flip wakes a host as often as it silences one
    flips = st.sampled_from([0, 0, 0, 0x01, 0x03, 0x1F, 0x10, _INJECTED_ONLY])
    initial = set(draw(st.lists(st.sampled_from(universe), unique=True, min_size=1)))
    address = st.sampled_from(universe)
    steps = draw(st.lists(
        st.builds(
            Step,
            # steps of 5 days hit the 30-day quiet-age boundary exactly
            gap=st.sampled_from((1, 2, 3, 5, 5, 5, 10, 10, 15)),
            # most scans keep the pool; the rest churn it within and
            # across /64s
            churn=st.just([]) | st.just([]) | st.lists(address, max_size=3, unique=True),
            flips=st.lists(st.tuples(address, flips), max_size=2) | st.just([]),
            renumber=st.sampled_from((None, None, None, 0, 1)),
            force_full=st.sampled_from((False,) * 5 + (True,)),
            must_probe=st.none() | st.lists(address, max_size=4),
        ),
        min_size=6, max_size=24,
    ))
    return universe, truth, initial, steps


@st.composite
def scheduler_configs(draw):
    loss_rate = draw(st.sampled_from([0.0, 0.03, 0.5]))
    attempts = draw(st.integers(1, 3))
    plan = None
    if draw(st.booleans()):
        start = draw(st.integers(0, 60))
        plan = FaultPlan(seed=draw(st.integers(0, 99)), bursts=(
            LossBurst(start, start + draw(st.integers(0, 20)), draw(st.sampled_from([0.2, 0.6]))),
        ))
    return dict(
        seed=draw(st.integers(0, (1 << 32) - 1)),
        refresh_interval=draw(st.sampled_from([1, 3, 5, 8, 10])),
        sample_rate=draw(st.sampled_from([0.0, 0.03125, 0.25, 0.5, 1.0])),
        loss_rate=loss_rate,
        retry_attempts=attempts,
        fault_plan=plan,
    )


def _observe(plan, carried, truth: Dict[int, int], reference: ReferenceScheduler):
    """What the engine would merge: probed targets answer their ground
    truth through the day's loss, carried targets replay as planned."""
    fast: Tuple[Set[int], ...] = tuple(set(s) for s in carried.fast)
    udp: Set[int] = set(carried.udp_responders)
    injected: Set[int] = set()
    for address in plan.probe_targets:
        live = truth.get(address, 0) & reference._survivors(address, plan.day)
        for index, (_, bit) in enumerate(FAST_BITS):
            if live & bit:
                fast[index].add(address)
        if live & BIT_UDP53:
            udp.add(address)
            if truth[address] & BIT_INJECTED:
                injected.add(address)
    results = {
        protocol: ScanResult(protocol=protocol, day=plan.day, targets=0,
                             responders=frozenset(fast[index]))
        for index, (protocol, _) in enumerate(FAST_BITS)
    }
    udp53 = Udp53Result(day=plan.day, qname="q", responders=udp)
    return results, udp53, injected


def _cleaning(day: int, udp: Set[int], injected: Set[int]) -> ScanCleaningResult:
    return ScanCleaningResult(
        day=day, clean_responders=udp - injected, injected_responders=set(injected)
    )


def _scheduler(config, metrics=None) -> IncrementalScheduler:
    """The production scheduler for the ``ReferenceScheduler`` kwargs
    ``config``, its loss model made from the same loss kwargs."""
    config = dict(config)
    loss = LossModel(
        config.pop("seed", 0),
        config.pop("loss_rate", 0.03),
        config.pop("retry_attempts", 1),
        config.pop("fault_plan", None),
    )
    return IncrementalScheduler(**config, loss=loss, metrics=metrics)


def _restored(scheduler: IncrementalScheduler, config, metrics) -> IncrementalScheduler:
    clone = _scheduler(config, metrics)
    clone.restore_state(scheduler.state_dict())
    return clone


def _compare(campaign, config, round_trip=None, save=None, rewind=None) -> MetricsRegistry:
    """Drive both schedulers through ``campaign``, asserting identical
    plans, replays, cleaning mutations and state after every scan, and
    identical metrics at the end; returns the reference's metrics.

    Two round trips can ride along: at scan ``round_trip`` the scheduler
    is replaced by a fresh one restored from its checkpoint state, and
    at scan ``rewind`` both schedulers go back to the state saved after
    scan ``save`` — the production one holding derived state from later
    scans, which ``restore_state`` must drop.
    """
    universe, truth, initial, steps = campaign
    truth = dict(truth)
    saved = None
    new_metrics, ref_metrics = MetricsRegistry(), MetricsRegistry()
    new = _scheduler(config, new_metrics)
    ref = ReferenceScheduler(**config, metrics=ref_metrics)
    # one pool object mutated in place between scans, as the service does
    pool = set(initial)
    day = 0
    for index, step in enumerate(steps):
        day += step.gap
        pool.symmetric_difference_update(step.churn)
        for address, mask in step.flips:
            truth[address] = mask
        if step.renumber is not None:
            for address in universe:
                if (address >> 88) & 0xFF == step.renumber:
                    truth[address] = 0
        must_probe = None if step.must_probe is None else set(step.must_probe)
        if index == round_trip:
            new = _restored(new, config, new_metrics)
        if index == rewind and saved is not None:
            new.restore_state(saved)
            ref.restore_state(saved)

        plan = new.plan(day, pool, step.force_full, must_probe=must_probe)
        expected = ref.plan(day, pool, step.force_full, must_probe=must_probe)
        assert plan == expected
        carried = new.carried_scan(plan)
        assert carried == ref.carried_scan(expected)

        results, udp53, injected = _observe(expected, carried, truth, ref)
        cleaning = _cleaning(day, udp53.responders, injected)
        ref_cleaning = _cleaning(day, udp53.responders, injected)
        new.absorb(plan, results, udp53, cleaning)
        ref.absorb(expected, results, udp53, ref_cleaning)
        assert cleaning == ref_cleaning
        assert new.state_dict() == ref.state_dict()
        if index == save:
            saved = ref.state_dict()
    assert new_metrics.state_dict() == ref_metrics.state_dict()
    return ref_metrics


@settings(max_examples=max(120, settings.default.max_examples), deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(campaign=campaigns(), config=scheduler_configs(), data=st.data())
def test_scheduler_matches_reference(campaign, config, data):
    scan = st.none() | st.integers(0, len(campaign[3]) - 1)
    _compare(campaign, config, data.draw(scan), data.draw(scan), data.draw(scan))


def test_confirmation_sample_repair_matches_reference():
    """A sampled stable prefix wakes up: the repair path, pinned."""
    universe = [(_prefix(0, 0, p64) << 64) | 1 for p64 in range(4)]
    quiet = [Step(5, [], [], None, False, None) for _ in range(9)]
    wake = Step(5, [], [(universe[2], 0x01)], None, False, None)
    campaign = (universe, dict.fromkeys(universe, 0), set(universe), quiet + [wake])
    config = dict(seed=3, refresh_interval=1000, sample_rate=1.0, loss_rate=0.0)
    metrics = _compare(campaign, config)
    assert metrics.counter_total("repro_sched_sampled_targets_total") > 0
    assert metrics.counter_total("repro_sched_divergence_repairs_total") == 1


def test_generated_campaigns_reach_every_plan_class():
    """The generator is not vacuous: across a fixed sample of campaigns
    the reference carries, samples, escalates and renumbers, holds
    injection-only carry entries and honours ``must_probe``."""
    seen = {"carried": 0, "sampled": 0, "escalated": 0, "injected_carry": 0,
            "forced": 0, "renumbered": 0, "must_probe": 0}

    @settings(max_examples=80, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(campaign=campaigns(), config=scheduler_configs())
    def run(campaign, config):
        universe, truth, initial, steps = campaign
        ref = ReferenceScheduler(**config)
        pool = set(initial)
        day = 0
        for step in steps:
            day += step.gap
            pool.symmetric_difference_update(step.churn)
            for address, mask in step.flips:
                truth[address] = mask
            if step.renumber is not None:
                for address in universe:
                    if (address >> 88) & 0xFF == step.renumber:
                        truth[address] = 0
            must_probe = set(step.must_probe or ()) & pool
            plan = ref.plan(day, pool, step.force_full, must_probe=must_probe)
            seen["must_probe"] += bool(must_probe - set(plan.carried))
            seen["carried"] += len(plan.carried)
            seen["sampled"] += len(plan.sampled)
            seen["escalated"] += len(plan.escalated)
            seen["forced"] += plan.forced_full
            seen["injected_carry"] += sum(
                1 for bits in ref._carry.values() if bits == _INJECTED_ONLY
            )
            carried = ref.carried_scan(plan)
            results, udp53, injected = _observe(plan, carried, truth, ref)
            ref.absorb(plan, results, udp53, _cleaning(day, udp53.responders, injected))
            seen["renumbered"] += sum(
                1 for state in ref._prefixes.values()
                if state.last_probe_day == day
                and state.last_change_day == day - QUIET_AGE_DAYS
            )

    run()
    assert all(seen.values()), seen


def test_campaign_with_reference_scheduler_is_identical():
    """A real incremental campaign gives the same history, metrics and
    scheduler state with the reference scheduler swapped in."""
    config = small_config()
    days = list(range(0, 96, 8))

    def campaign(reference: bool):
        service = HitlistService(build_internet(config), config, settings=ServiceSettings(
            gfw_filter_deploy_day=config.gfw_filter_deploy_day,
            scan_mode="incremental",
            retry_attempts=2,
        ))
        if reference:
            settings = service.settings
            service.scheduler = ReferenceScheduler(
                seed=config.seed,
                refresh_interval=settings.refresh_interval,
                sample_rate=settings.sample_rate,
                loss_rate=settings.loss_rate,
                retry_attempts=settings.retry_attempts,
                fault_plan=service.fault_plan,
                metrics=service.metrics,
            )
        history = service.run(days)
        return (
            history_summary(history),
            deterministic_metrics(registry_to_dict(service.metrics)),
            service.scheduler.state_dict(),
        )

    assert campaign(reference=False) == campaign(reference=True)
