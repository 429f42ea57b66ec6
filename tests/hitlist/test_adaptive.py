"""Tests for adaptive scan scheduling (scan runtime grows with input)."""

import os

import pytest

from repro.hitlist import HitlistService
from repro.hitlist.history_io import history_summary
from repro.hitlist.service import FixedSchedule, SelfPaced, ServiceSettings
from repro.obs import deterministic_metrics, metrics_to_json, registry_to_dict
from repro.runtime.checkpoint import read_checkpoint
from repro.runtime.faults import FaultPlan, VantageOutage
from repro.simnet import build_internet, small_config
from tests.publish.test_pipeline_publish import _store_fingerprint


@pytest.fixture(scope="module")
def adaptive_history():
    config = small_config(seed=41)
    world = build_internet(config)
    settings = ServiceSettings(probes_per_day=8_000)
    service = HitlistService(world, config, settings=settings)
    # the pool grows from ~2.8 k to ~4.8 k targets over this window, so
    # scan runtime crosses from 2 to 3 days mid-run
    return service.run(pacer=SelfPaced(
        8_000, base_interval=2, start_day=0, until_day=200
    ))


class TestAdaptiveScheduling:
    def test_cadence_degrades_with_pool_growth(self, adaptive_history):
        snapshots = adaptive_history.snapshots
        assert len(snapshots) > 5
        gaps = [b.day - a.day for a, b in zip(snapshots, snapshots[1:])]
        pools = [s.scan_target_count for s in snapshots]
        # the biggest pool must not come with the smallest gap after it
        biggest = pools.index(max(pools))
        if biggest < len(gaps):
            assert gaps[biggest] >= min(gaps)
        # cadence stretches at some point (multi-day scans appear)
        assert max(gaps) > min(gaps)

    def test_gap_matches_runtime_model(self, adaptive_history):
        rate = 8_000
        snapshots = adaptive_history.snapshots
        for current, following in zip(snapshots, snapshots[1:]):
            runtime_days = -(-5 * current.scan_target_count // rate)
            assert following.day - current.day == max(2, runtime_days)

    def test_requires_rate(self):
        config = small_config(seed=41)
        world = build_internet(config)
        service = HitlistService(world, config)  # no probes_per_day
        with pytest.raises(ValueError, match="settings.probes_per_day"):
            service.run(pacer=SelfPaced(
                service.settings.probes_per_day, 1, start_day=0, until_day=10
            ))

    def test_final_state_retained(self, adaptive_history):
        assert adaptive_history.retained
        assert adaptive_history.final.day == adaptive_history.snapshots[-1].day


class TestAdaptiveValidation:
    def test_zero_base_interval_rejected(self):
        """base_interval=0 with an empty pool would loop forever on one day."""
        config = small_config(seed=41)
        service = HitlistService(
            build_internet(config), config,
            settings=ServiceSettings(probes_per_day=8_000),
        )
        with pytest.raises(ValueError, match="base_interval"):
            service.run(pacer=SelfPaced(8_000, 0, start_day=0, until_day=10))

    def test_negative_base_interval_rejected(self):
        config = small_config(seed=41)
        service = HitlistService(
            build_internet(config), config,
            settings=ServiceSettings(probes_per_day=8_000),
        )
        with pytest.raises(ValueError, match="base_interval"):
            service.run(pacer=SelfPaced(8_000, -3, start_day=0, until_day=10))

    @pytest.mark.parametrize("rate,message", [
        (None, "settings.probes_per_day, which is unset"),
        (0, r"settings.probes_per_day must be >= 1, got 0"),
        (-500, r"settings.probes_per_day must be >= 1, got -500"),
    ])
    def test_bad_rate_names_value_and_bound(self, rate, message):
        """An unset rate and one below 1 fail with distinct messages."""
        with pytest.raises(ValueError, match=message):
            SelfPaced(rate, 1, start_day=0, until_day=10)

    def test_pacer_and_scan_days_are_exclusive(self, world41):
        config, world = world41
        service = HitlistService(
            world, config, settings=ServiceSettings(probes_per_day=8_000)
        )
        with pytest.raises(ValueError, match="not both"):
            service.run([0, 2], pacer=SelfPaced(8_000, 2, 0, 10))


@pytest.fixture(scope="module")
def world41():
    config = small_config(seed=41)
    return config, build_internet(config)


class TestStandDownRetention:
    """A vantage outage must not break retention in a self-paced run.

    Both cases used to raise ``no scan data to retain``: the adaptive
    loop retained pending days, and the end-of-run state, on scans that
    had stood down and so had no responder sets.
    """

    @pytest.mark.parametrize("retain_days,until_day", [((12,), 30), ((), 12)])
    def test_outage_run_retains_first_working_scan(
        self, world41, retain_days, until_day
    ):
        config, world = world41
        service = HitlistService(
            world, config,
            settings=ServiceSettings(probes_per_day=8_000, retain_days=retain_days),
            fault_plan=FaultPlan(outages=(VantageOutage(start_day=10, end_day=14),)),
        )
        history = service.run(pacer=SelfPaced(
            8_000, base_interval=2, start_day=0, until_day=until_day
        ))
        stood_down = [s.day for s in history.snapshots if s.stood_down]
        working = [s.day for s in history.snapshots if not s.stood_down]
        assert stood_down, "the outage window produced no stood-down scan"
        assert not set(history.retained) & set(stood_down)
        for pending in retain_days:
            assert min(d for d in working if d >= pending) in history.retained
        assert history.final.day == working[-1]


def _deterministic_json(service):
    return metrics_to_json(deterministic_metrics(registry_to_dict(service.metrics)))


class _Killed(Exception):
    pass


class TestSelfPacedKillAndResume:
    """A self-paced campaign resumes byte-identically, publishing included."""

    KILL_AFTER = 5

    def _campaign(self, world41, tmp_path, scan_mode, kill_after=None):
        config, world = world41
        service = HitlistService(world, config, settings=ServiceSettings(
            gfw_filter_deploy_day=config.gfw_filter_deploy_day,
            probes_per_day=8_000, scan_mode=scan_mode,
        ))
        if kill_after is not None:
            original = service.run_scan
            executed = {"count": 0}

            def dying_run_scan(day, prev_day, force_full=False):
                if executed["count"] == kill_after:
                    raise _Killed()
                executed["count"] += 1
                return original(day, prev_day, force_full=force_full)

            service.run_scan = dying_run_scan
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir(parents=True)
        history = service.run(
            pacer=SelfPaced(8_000, base_interval=2, start_day=0, until_day=40),
            checkpoint_every=1, checkpoint_path=str(ckpt),
            publish_dir=str(tmp_path / "store"),
        )
        return service, history

    @pytest.mark.parametrize("scan_mode", ["full", "incremental"])
    def test_resume_is_byte_identical(self, world41, tmp_path, scan_mode):
        baseline, history = self._campaign(world41, tmp_path / "a", scan_mode)
        assert history.snapshots[-1].probed_target_count == (
            history.snapshots[-1].scan_target_count
        )
        killed = tmp_path / "b"
        with pytest.raises(_Killed):
            self._campaign(world41, killed, scan_mode, kill_after=self.KILL_AFTER)
        files = sorted(os.listdir(killed / "ckpt"))
        assert len(files) == self.KILL_AFTER
        resumed = HitlistService.resume(
            str(killed / "ckpt" / files[-1]), internet=world41[1]
        )
        assert isinstance(resumed._resumed[0], SelfPaced)
        resumed_history = resumed.run()
        assert history_summary(resumed_history) == history_summary(history)
        assert _deterministic_json(resumed) == _deterministic_json(baseline)
        assert _store_fingerprint(killed / "store") == _store_fingerprint(
            tmp_path / "a" / "store"
        )


class TestCheckpointScheduleKeys:
    """Each pacer writes its own schedule keys; fixed ones are unchanged."""

    LOOP_KEYS = {
        "prev_day", "retain_pending", "checkpoint_every", "checkpoint_path",
        "publish_dir",
    }

    def test_fixed_schedule_keys(self, world41, tmp_path):
        config, world = world41
        service = HitlistService(world, config)
        service.run([0, 5], checkpoint_every=1, checkpoint_path=str(tmp_path / "c"))
        schedule = read_checkpoint(str(tmp_path / "c"))["schedule"]
        assert set(schedule) == self.LOOP_KEYS | {"scan_days", "next_index"}
        assert FixedSchedule.from_state(schedule).next_day() is None

    def test_self_paced_keys(self, world41, tmp_path):
        config, world = world41
        service = HitlistService(
            world, config, settings=ServiceSettings(probes_per_day=8_000)
        )
        service.run(
            pacer=SelfPaced(8_000, base_interval=2, start_day=0, until_day=6),
            checkpoint_every=1, checkpoint_path=str(tmp_path / "c"),
        )
        schedule = read_checkpoint(str(tmp_path / "c"))["schedule"]
        assert set(schedule) == self.LOOP_KEYS | {
            "probes_per_day", "base_interval", "start_day", "until_day",
            "due_day", "next_index",
        }
        assert schedule["next_index"] == len(service.history.snapshots)
        assert SelfPaced.from_state(schedule).next_day() is None
