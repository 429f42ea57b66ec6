"""Incremental-scheduler determinism and partition properties.

The scheduler's contract: under ``scan_mode="incremental"`` the service
produces the same bytes however the engine chunks its scans and
across kill-and-resume (priority and carry state ride in checkpoints),
and every scan day's plan tiles the pool exactly — each address is
either probed or carried, never both, never neither.
"""

import pytest

from repro._util import mix64
from repro.hitlist import HitlistService
from repro.hitlist.history_io import history_summary
from repro.hitlist.service import SelfPaced, ServiceSettings
from repro.obs import deterministic_metrics, registry_to_dict
from repro.scan import engine as engine_module
from repro.scan.loss import LossModel
from repro.scan.scheduler import IncrementalScheduler
from repro.simnet import build_internet, small_config

SCAN_DAYS = list(range(0, 96, 8))
#: shard counts the engine's former process pool was checked at; a scan
#: cut into N chunks is the partition N workers shared
WORKER_COUNTS = (1, 2, 4)


def _build(config):
    settings = ServiceSettings(
        gfw_filter_deploy_day=config.gfw_filter_deploy_day,
        scan_mode="incremental",
    )
    return HitlistService(build_internet(config), config, settings=settings)


def _run(config):
    service = _build(config)
    history = service.run(SCAN_DAYS)
    metrics = deterministic_metrics(registry_to_dict(service.metrics))
    chunks = service.metrics.counter_total("repro_engine_chunks_total")
    return history, metrics, chunks


@pytest.fixture(scope="module")
def config():
    return small_config()


@pytest.fixture(scope="module")
def reference(config):
    """The default-chunk incremental run every variant must reproduce."""
    return _run(config)


def test_scheduler_engages(reference):
    """The campaign actually carries targets (the run is incremental)."""
    history, _, _ = reference
    carried = sum(s.metrics.get("sched_carried", 0) for s in history.snapshots)
    assert carried > 0
    # probed counts are recorded and, at steady state, below pool size
    final = history.snapshots[-1]
    assert final.probed_target_count == final.scan_target_count  # forced full
    steady = history.snapshots[-2]
    assert 0 <= steady.probed_target_count < steady.scan_target_count


@pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
def test_worker_count_invisible_in_results(config, reference, monkeypatch, workers):
    ref_history, ref_metrics, ref_chunks = reference
    first_scan = ref_history.snapshots[0].scan_target_count
    monkeypatch.setattr(engine_module, "DEFAULT_CHUNK_SIZE", -(-first_scan // workers))
    history, metrics, chunks = _run(config)

    assert chunks > ref_chunks
    assert history.snapshots == ref_history.snapshots
    assert history_summary(history) == history_summary(ref_history)
    assert set(history.retained) == set(ref_history.retained)
    for day in ref_history.retained:
        assert history.retained[day].responders == ref_history.retained[day].responders
        assert history.retained[day].injected == ref_history.retained[day].injected
    assert metrics == ref_metrics


def test_kill_and_resume_bit_identical(config, reference, tmp_path):
    """Scheduler state rides in checkpoints: a run killed mid-campaign
    resumes and finishes byte-identically to the uninterrupted run."""
    kill_after = 5  # past the first carried scans, so live state is rich

    class _Killed(Exception):
        pass

    service = _build(config)
    original = service.run_scan
    executed = {"count": 0}

    def dying_run_scan(day, prev_day, force_full=False):
        if executed["count"] == kill_after:
            raise _Killed()
        executed["count"] += 1
        return original(day, prev_day, force_full=force_full)

    service.run_scan = dying_run_scan
    with pytest.raises(_Killed):
        service.run(SCAN_DAYS, checkpoint_every=1, checkpoint_path=str(tmp_path))

    resumed = HitlistService.resume(str(tmp_path))
    # the restored scheduler carries live priority + carry state, not a
    # cold restart that would re-probe the whole pool
    assert resumed.scheduler is not None
    assert resumed.scheduler._prefixes
    assert resumed.scheduler._scan_index == kill_after

    ref_history, _, _ = reference
    assert history_summary(resumed.run()) == history_summary(ref_history)


def test_state_dict_round_trip(config):
    """restore_state(state_dict()) reproduces the partition exactly."""
    service = _build(config)
    service.run(SCAN_DAYS[:6])
    scheduler = service.scheduler
    payload = scheduler.state_dict()

    clone = IncrementalScheduler(
        loss=scheduler.loss,
        refresh_interval=scheduler.refresh_interval,
        sample_rate=scheduler.sample_rate,
    )
    clone.restore_state(payload)
    assert clone.state_dict() == payload

    pool = service.scan_pool
    day = SCAN_DAYS[6]
    plan_a = scheduler.plan(day, pool)
    plan_b = clone.plan(day, pool)
    assert plan_a.probe_targets == plan_b.probe_targets
    assert plan_a.carried == plan_b.carried
    assert plan_a.sampled == plan_b.sampled


def test_plans_tile_the_pool(config):
    """Property: for every scan day, probed + carried partition the pool
    — disjoint, and their union is exactly the pool."""
    service = _build(config)
    scheduler = service.scheduler
    original = scheduler.plan
    seen = {"plans": 0}

    def checking_plan(day, pool, force_full=False, must_probe=None):
        pool_set = set(pool)
        plan = original(day, pool, force_full, must_probe=must_probe)
        probed = set(plan.probe_targets)
        carried = set(plan.carried)
        assert not probed & carried
        assert probed | carried == pool_set
        assert len(plan.probe_targets) + len(plan.carried) == len(pool_set)
        # probe groups re-tile the probe set exactly
        grouped = [a for _, members in plan.probe_groups for a in members]
        assert sorted(grouped) == sorted(plan.probe_targets)
        # the probe list is globally sorted: chunk boundaries are
        # deterministic
        assert plan.probe_targets == sorted(plan.probe_targets)
        assert plan.carried == sorted(plan.carried)
        seen["plans"] += 1
        return plan

    scheduler.plan = checking_plan
    service.run(SCAN_DAYS)
    assert seen["plans"] == len(SCAN_DAYS)


def test_synthetic_pool_tiling_under_churn():
    """The tiling property holds for adversarial pool churn, without a
    simulated internet: members appear, disappear, and whole prefixes
    rotate between plans."""
    scheduler = IncrementalScheduler(loss=LossModel(7, loss_rate=0.0))
    base = [
        ((0x2001 << 112) | ((i % 97) << 64) | (i * 0x9E37) & 0xFFFF)
        for i in range(400)
    ]
    for step in range(12):
        day = step * 2
        # deterministic churn: drop ~1/8 of members, add some new ones
        pool = {
            a for a in base
            if mix64((a ^ (step // 4)) & 0xFFFFFFFFFFFFFFFF) % 8 != 0
        }
        pool |= {((0x2002 << 112) | (step << 64) | j) for j in range(step)}
        plan = scheduler.plan(day, pool)
        probed = set(plan.probe_targets)
        carried = set(plan.carried)
        assert not probed & carried
        assert probed | carried == pool
        # prefixes are atomic: a /64 is wholly probed or wholly carried
        probed_prefixes = {a >> 64 for a in probed}
        carried_prefixes = {a >> 64 for a in carried}
        assert not probed_prefixes & carried_prefixes


def test_adaptive_rounds_reuse_scheduler_state(config):
    """A self-paced campaign keeps priority state across rounds: once
    prefixes stabilise, later rounds probe less than the pool and the
    cadence recovers, instead of every round paying a cold full probe."""
    settings = ServiceSettings(
        gfw_filter_deploy_day=config.gfw_filter_deploy_day,
        scan_mode="incremental",
        probes_per_day=2_000_000,
    )
    service = HitlistService(build_internet(config), config, settings=settings)
    history = service.run(pacer=SelfPaced(
        2_000_000, base_interval=2, start_day=0, until_day=40
    ))
    snapshots = history.snapshots
    assert len(snapshots) >= 4
    # the first round is a cold full probe; by the late rounds the
    # scheduler must be carrying state forward.  The campaign's final
    # round is forced full, so carry is asserted on the one before it
    first, late, final = snapshots[0], snapshots[-2], snapshots[-1]
    assert first.probed_target_count == first.scan_target_count
    assert late.probed_target_count < late.scan_target_count
    assert final.probed_target_count == final.scan_target_count
    # priority state survived every round transition (not rebuilt)
    assert service.scheduler._scan_index == len(snapshots)
    assert service.scheduler._prefixes
