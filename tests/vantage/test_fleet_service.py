"""Fleet campaigns through the full service pipeline.

The PR's acceptance properties: a five-vantage campaign with two
injected member failures completes, re-shards orphaned ranges, and
publishes a reconciled hitlist that is byte-identical across reruns and
across kill-and-resume — including kills mid-outage and mid-
reconciliation — with per-vantage disagreement metrics in the summary
and the Prometheus exposition.  Plus the determinism matrix: results
must be invariant to the scan engine's chunk size at every fleet size.
"""

import os

import pytest

from repro.hitlist import DegradedReason, HitlistService, ServiceSettings
from repro.hitlist.history_io import history_summary
from repro.obs import deterministic_metrics, registry_to_dict, to_prometheus_text
from repro.runtime.faults import FaultPlan, VantageOutage
from repro.scan import engine as engine_module
from repro.simnet import build_internet, small_config

#: dense cadence so scans land inside outages and backoff windows
SCAN_DAYS = list(range(0, 44, 4))

VANTAGE_COUNTS = (1, 3, 5)
#: the default, and a size that cuts every member's shard into chunks
CHUNK_SIZES = (engine_module.DEFAULT_CHUNK_SIZE, 512)


@pytest.fixture(scope="module")
def config():
    return small_config()


def _fault_plan(config, vantages):
    """k=2 member failures mid-campaign (overlapping for two scans).

    Each fleet size gets a plan naming only its own members; the single
    vantage takes the first window as a global outage, so its stand-down
    stays covered.
    """
    scoped = {3: ("vp1", "vp2"), 5: ("vp1", "vp3")}.get(vantages)
    if scoped is None:
        return FaultPlan(seed=config.seed, outages=(VantageOutage(10, 21),))
    return FaultPlan(
        seed=config.seed,
        outages=(
            VantageOutage(10, 21, vantage=scoped[0]),
            VantageOutage(14, 18, vantage=scoped[1]),
        ),
    )


@pytest.fixture(scope="module")
def fault_plan(config):
    """The five-vantage acceptance campaign's plan."""
    return _fault_plan(config, 5)


def _settings(config, vantages, quorum="majority"):
    return ServiceSettings(
        gfw_filter_deploy_day=config.gfw_filter_deploy_day,
        vantages=vantages,
        quorum=quorum,
    )


def _run(config, vantages, fault_plan=None):
    service = HitlistService(
        build_internet(config), config,
        settings=_settings(config, vantages),
        fault_plan=fault_plan,
    )
    history = service.run(SCAN_DAYS)
    return history, service


@pytest.fixture(scope="module")
def acceptance(config, fault_plan):
    """The uninterrupted five-vantage reference campaign."""
    return _run(config, 5, fault_plan=fault_plan)


class TestAcceptanceCampaign:
    def test_survives_two_member_failures(self, acceptance):
        history, _service = acceptance
        degraded_days = {
            snapshot.day: snapshot.degraded
            for snapshot in history.snapshots if snapshot.degraded
        }
        assert degraded_days, "the injected outages left no trace"
        # both failed members show up, but no scan ever stood down
        tagged = {tag for tags in degraded_days.values() for tag in tags}
        assert any(tag.startswith("vantage:vp1:") for tag in tagged)
        assert any(tag.startswith("vantage:vp3:") for tag in tagged)
        assert "vantage_outage" not in tagged
        assert all(
            snapshot.cleaned_total > 0 for snapshot in history.snapshots
        )

    def test_orphaned_ranges_reshard(self, acceptance):
        history, _service = acceptance
        during = [
            snapshot.vantage for snapshot in history.snapshots
            if snapshot.vantage and snapshot.vantage["down"]
        ]
        assert during
        for block in during:
            assert block["resharded"] > 0
            live_targets = sum(
                stats["targets"]
                for stats in block["per_vantage"].values()
            )
            assert live_targets > 0

    def test_structured_degraded_reasons(self, acceptance):
        history, _service = acceptance
        reasons = [
            DegradedReason.parse(tag)
            for snapshot in history.snapshots
            for tag in snapshot.degraded
        ]
        assert reasons
        outage = next(r for r in reasons if r.vantage_id == "vp1")
        assert outage.kind == "vantage"
        assert outage.detail == "outage"
        backoffs = [r for r in reasons if r.detail == "backoff"]
        assert backoffs, "quarantine after the outage left no backoff marker"

    def test_rerun_byte_identical(self, config, fault_plan, acceptance):
        history, _service = acceptance
        rerun, _svc = _run(config, 5, fault_plan=fault_plan)
        assert history_summary(rerun) == history_summary(history)
        assert rerun.final.cleaned_any() == history.final.cleaned_any()

    def test_disagreement_metrics_exported(self, acceptance):
        history, service = acceptance
        summary = history_summary(history)
        blocks = [
            entry["vantage"] for entry in summary["snapshots"]
            if "vantage" in entry
        ]
        assert blocks and any(block["disagreements"] for block in blocks)
        assert any(
            block["quorum"]["accepted"] + block["quorum"]["rejected"] > 0
            for block in blocks
        )
        families = deterministic_metrics(
            registry_to_dict(service.metrics)
        )["metrics"]
        for name in (
            "repro_vantage_scans_total",
            "repro_vantage_targets_total",
            "repro_vantage_disagreements_total",
            "repro_vantage_quorum_total",
            "repro_vantage_resharded_total",
        ):
            assert name in families, f"{name} missing from the registry"
        exposition = to_prometheus_text(service.metrics)
        assert 'repro_vantage_scans_total{vantage="vp1",outcome="down"}' in (
            exposition
        )
        assert "repro_vantage_disagreements_total" in exposition

    def test_quorum_decisions_in_summary(self, acceptance):
        history, _service = acceptance
        summary = history_summary(history)
        policies = {
            entry["vantage"]["quorum"]["policy"]
            for entry in summary["snapshots"] if "vantage" in entry
        }
        assert policies == {"majority"}


class TestKillAndResume:
    @pytest.mark.parametrize(
        "kill_after,label",
        [
            (4, "mid-outage"),            # day 16: vp1 and vp3 both down
            (6, "mid-reconciliation"),    # day 24: quorum active, backoff live
        ],
    )
    def test_resume_bit_identical(
        self, config, fault_plan, acceptance, tmp_path, kill_after, label
    ):
        history, _service = acceptance
        reference = history_summary(history)

        ckpt = tmp_path / label
        ckpt.mkdir()
        service = HitlistService(
            build_internet(config), config,
            settings=_settings(config, 5), fault_plan=fault_plan,
        )

        class Killed(Exception):
            pass

        original = service.run_scan
        executed = {"count": 0}

        def dying_run_scan(day, prev_day, force_full=False):
            if executed["count"] == kill_after:
                raise Killed()
            executed["count"] += 1
            return original(day, prev_day, force_full=force_full)

        service.run_scan = dying_run_scan
        with pytest.raises(Killed):
            service.run(
                SCAN_DAYS, checkpoint_every=1, checkpoint_path=str(ckpt)
            )
        resumed = HitlistService.resume(str(ckpt))
        assert resumed.fleet is not None
        resumed_history = resumed.run()
        assert history_summary(resumed_history) == reference
        assert resumed_history.final.cleaned_any() == history.final.cleaned_any()

    def test_fleet_backoff_state_rides_checkpoints(
        self, config, fault_plan, tmp_path
    ):
        """A kill inside the outage must not reset quarantine deadlines."""
        service = HitlistService(
            build_internet(config), config,
            settings=_settings(config, 5), fault_plan=fault_plan,
        )
        service.run(
            SCAN_DAYS[:5], checkpoint_every=1, checkpoint_path=str(tmp_path)
        )
        expected = service.fleet.state_dict()
        assert expected["fail_counts"].get("vp1", 0) > 0
        resumed = HitlistService.resume(str(tmp_path))
        assert resumed.fleet.state_dict() == expected

    def test_resumed_checkpoints_byte_identical(self, config, tmp_path):
        """Same checkpoint path -> byte-identical checkpoint files."""
        ref_dir = tmp_path / "ckpt"
        ref_dir.mkdir()
        days = SCAN_DAYS[:6]
        service = HitlistService(
            build_internet(config), config,
            settings=_settings(config, 3),
            fault_plan=_fault_plan(config, 3),
        )
        service.run(days, checkpoint_every=1, checkpoint_path=str(ref_dir))
        reference = {
            name: (ref_dir / name).read_bytes()
            for name in os.listdir(ref_dir)
        }
        for name in list(ref_dir.iterdir()):
            if name.name > "checkpoint-day00008.ckpt":
                name.unlink()
        resumed = HitlistService.resume(str(ref_dir))
        resumed.run()
        assert {
            name: (ref_dir / name).read_bytes()
            for name in os.listdir(ref_dir)
        } == reference


class TestDeterminismMatrix:
    @pytest.fixture(scope="class")
    def matrix_days(self):
        return SCAN_DAYS[:4]

    @pytest.mark.parametrize("vantages", VANTAGE_COUNTS)
    def test_chunking_invisible_per_fleet_size(
        self, config, vantages, matrix_days, monkeypatch
    ):
        reference = None
        for chunk_size in CHUNK_SIZES:
            monkeypatch.setattr(engine_module, "DEFAULT_CHUNK_SIZE", chunk_size)
            service = HitlistService(
                build_internet(config), config,
                settings=_settings(config, vantages),
                fault_plan=_fault_plan(config, vantages),
            )
            summary = history_summary(service.run(matrix_days))
            if reference is None:
                # day 12 sits inside every size's outage windows
                assert summary["snapshots"][-1]["degraded"]
                reference = summary
            else:
                assert summary == reference
