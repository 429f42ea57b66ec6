"""Checkpoint/resume: crash recovery must be invisible in the output.

The property under test: for every scan index k, killing the service
right after scan k and resuming from its checkpoint produces a history
(summary, retained responder sets, aliased prefixes, accounting) that is
bit-identical to the uninterrupted baseline — including when the world
is rebuilt from the serialized config instead of reusing the live one.
"""

import dataclasses
import os

import pytest

from repro.hitlist import HitlistService, ServiceSettings
from repro.hitlist.history_io import history_summary
from repro.hitlist.service import DegradedReason, ScanSnapshot
from repro.obs import deterministic_metrics, registry_to_dict
from repro.protocols import ALL_PROTOCOLS, Protocol
from repro.runtime import (
    CheckpointError,
    FaultPlan,
    VantageOutage,
    read_checkpoint,
    write_checkpoint,
)
from repro.simnet import build_internet

from repro.runtime.checkpoint import _snapshot_from_dict, _snapshot_to_dict
from tests.runtime.conftest import SCAN_DAYS


class _Killed(Exception):
    pass


def _run_killed(config, kill_after, tmp_path, **service_kwargs):
    """Run the schedule but die right after ``kill_after`` scans."""
    service = HitlistService(build_internet(config), config, **service_kwargs)
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
    files = sorted(f for f in os.listdir(tmp_path) if f.endswith(".ckpt"))
    assert len(files) == kill_after
    return tmp_path / files[-1]


def _assert_identical(baseline, resumed):
    assert history_summary(baseline) == history_summary(resumed)
    assert set(baseline.retained) == set(resumed.retained)
    for day in baseline.retained:
        assert baseline.retained[day].responders == resumed.retained[day].responders
        assert baseline.retained[day].injected == resumed.retained[day].injected
        assert (
            baseline.retained[day].aliased_prefixes
            == resumed.retained[day].aliased_prefixes
        )
    assert baseline.input_ever == resumed.input_ever
    assert baseline.excluded == resumed.excluded
    assert baseline.ever_responsive == resumed.ever_responsive
    assert baseline.ever_responsive_any == resumed.ever_responsive_any
    assert baseline.per_source_counts == resumed.per_source_counts


class TestKillAndResume:
    @pytest.mark.parametrize("kill_after", [1, 5, 10, len(SCAN_DAYS) - 1])
    def test_resume_is_bit_identical(
        self, config, baseline_history, tmp_path, kill_after
    ):
        checkpoint = _run_killed(config, kill_after, tmp_path)
        resumed = HitlistService.resume(str(checkpoint))
        _assert_identical(baseline_history, resumed.run())

    def test_resume_accepts_directory(self, config, baseline_history, tmp_path):
        """A directory resolves to its newest per-day checkpoint."""
        _run_killed(config, 4, tmp_path)
        resumed = HitlistService.resume(str(tmp_path))
        _assert_identical(baseline_history, resumed.run())

    def test_resume_with_live_internet(self, config, world, baseline_history, tmp_path):
        """Passing the original world skips the rebuild, same result."""
        checkpoint = _run_killed(config, 6, tmp_path)
        resumed = HitlistService.resume(str(checkpoint), internet=world)
        assert resumed.internet is world
        _assert_identical(baseline_history, resumed.run())

    def test_completed_run_checkpoint_restores_final_state(
        self, config, baseline_history, tmp_path
    ):
        service = HitlistService(build_internet(config), config)
        history = service.run(
            SCAN_DAYS, checkpoint_every=5, checkpoint_path=str(tmp_path)
        )
        _assert_identical(baseline_history, history)
        # the final checkpoint carries the finished schedule: resuming it
        # runs zero scans and reproduces the full history
        resumed = HitlistService.resume(str(tmp_path))
        _assert_identical(baseline_history, resumed.run())

    def test_checkpoint_every_validation(self, config, world):
        service = HitlistService(world, config)
        with pytest.raises(ValueError, match="checkpoint_every"):
            service.run(SCAN_DAYS[:2], checkpoint_every=0, checkpoint_path="x")


class TestFleetCheckpointCompatibility:
    """Fleet checkpoints written while the service still built an unused
    home scanner carry that scanner's 0 as the top-level
    ``service.probes_sent``; today that field is member 0's count."""

    def test_zero_home_probes_resume_bit_identical(self, config, tmp_path):
        settings = ServiceSettings(
            gfw_filter_deploy_day=config.gfw_filter_deploy_day, vantages=3
        )
        reference = HitlistService(
            build_internet(config), config, settings=settings
        )
        history = reference.run(SCAN_DAYS)

        checkpoint = str(_run_killed(config, 6, tmp_path, settings=settings))
        payload = read_checkpoint(checkpoint)
        state = payload["service"]
        assert state["probes_sent"] == state["fleet"]["probes_sent"][0] > 0
        state["probes_sent"] = 0
        write_checkpoint(checkpoint, payload)

        resumed = HitlistService.resume(checkpoint)
        assert resumed.engine.probes_sent == state["fleet"]["probes_sent"][0]
        _assert_identical(history, resumed.run())
        assert deterministic_metrics(
            registry_to_dict(resumed.metrics)
        ) == deterministic_metrics(registry_to_dict(reference.metrics))

    def test_stray_scoped_fault_no_longer_resumes(self, config, tmp_path):
        """Older checkpoints could carry a fault scoped to a vantage the
        fleet lacks (it was silently ignored); resuming one now fails
        the same way a fresh run with that plan does."""
        checkpoint = str(_run_killed(
            config, 2, tmp_path,
            fault_plan=FaultPlan(outages=(VantageOutage(10, 21),)),
        ))
        payload = read_checkpoint(checkpoint)
        payload["fault_plan"]["vantage_outages"].append(
            {"vantage": "vp1", "start_day": 42, "end_day": 63}
        )
        write_checkpoint(checkpoint, payload)
        with pytest.raises(ValueError, match="vp1"):
            HitlistService.resume(checkpoint)


class TestCheckpointFormat:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "state.ckpt")
        payload = {"alpha": [1, 2, 3], "nested": {"day": 7}}
        write_checkpoint(path, payload)
        assert read_checkpoint(path) == payload

    def test_flipped_byte_rejected(self, config, tmp_path):
        checkpoint = _run_killed(config, 1, tmp_path)
        blob = bytearray(checkpoint.read_bytes())
        blob[-10] ^= 0xFF
        checkpoint.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            read_checkpoint(str(checkpoint))

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_checkpoint(str(path), {"key": "value" * 100})
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(str(path))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        path.write_bytes(b"definitely not a checkpoint\n")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            read_checkpoint(str(path))

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_checkpoint(str(path), {"key": 1})
        header, _, body = path.read_bytes().partition(b"\n")
        parts = header.split()
        parts[1] = b"99"
        path.write_bytes(b" ".join(parts) + b"\n" + body)
        with pytest.raises(CheckpointError, match="version 99"):
            read_checkpoint(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint files"):
            read_checkpoint(str(tmp_path))

    def test_corrupted_resume_is_rejected_not_garbage(self, config, tmp_path):
        checkpoint = _run_killed(config, 2, tmp_path)
        blob = bytearray(checkpoint.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        checkpoint.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            HitlistService.resume(str(checkpoint))


class TestSnapshotCodec:
    #: a snapshot whose every field differs from its dataclass default
    SNAPSHOT = ScanSnapshot(
        day=91,
        input_total=5000,
        scan_target_count=4200,
        aliased_prefix_count=37,
        probed_target_count=1300,
        published_counts={p: 10 + i for i, p in enumerate(ALL_PROTOCOLS)},
        cleaned_counts={p: 5 + i for i, p in enumerate(ALL_PROTOCOLS)},
        published_total=400,
        cleaned_total=390,
        injected_count=12,
        churn_new=3,
        churn_recurring=4,
        churn_gone=5,
        excluded_now=6,
        udp53_hit_rate=0.125,
        degraded=(
            DegradedReason.source("atlas"),
            DegradedReason.vantage("vp1", "outage"),
        ),
        vantage={"live": ["vp0", "vp2"], "resharded": 9},
        metrics={"probes_sent": 21000, "gfw_injected": 12},
    )

    def test_every_field_round_trips(self, tmp_path):
        snapshot = self.SNAPSHOT
        for spec in dataclasses.fields(ScanSnapshot):
            if spec.default is not dataclasses.MISSING:
                assert getattr(snapshot, spec.name) != spec.default, spec.name
            elif spec.default_factory is not dataclasses.MISSING:
                assert getattr(snapshot, spec.name) != spec.default_factory(), spec.name
        entry = _snapshot_to_dict(snapshot)
        assert list(entry) == [spec.name for spec in dataclasses.fields(ScanSnapshot)]
        assert entry["published_counts"]["UDP/53"] == snapshot.published_counts[Protocol.UDP53]
        path = str(tmp_path / "snapshot.ckpt")
        write_checkpoint(path, {"snapshot": entry})
        decoded = _snapshot_from_dict(read_checkpoint(path)["snapshot"])
        assert decoded == snapshot
        assert all(isinstance(reason, DegradedReason) for reason in decoded.degraded)
        assert decoded.degraded[1].kind == "vantage"

    def test_older_entry_falls_back_to_defaults(self):
        entry = _snapshot_to_dict(self.SNAPSHOT)
        for key in ("probed_target_count", "udp53_hit_rate", "degraded",
                    "vantage", "metrics"):
            del entry[key]
        decoded = _snapshot_from_dict(entry)
        assert decoded.probed_target_count == -1
        assert decoded.udp53_hit_rate == 0.0
        assert decoded.degraded == () and decoded.vantage is None
        assert decoded.metrics == {}
        assert decoded.cleaned_counts == self.SNAPSHOT.cleaned_counts
