"""Fault injection: deterministic failures the service must absorb.

Faulted runs must complete without exceptions, record what they absorbed
in ``ScanSnapshot.degraded``, stay reproducible from the scenario seed,
and — combined with checkpointing — still resume bit-identically.
"""

import io
import json

import pytest

from repro._util import mix64
from repro.hitlist import HitlistService, ServiceSettings
from repro.hitlist.history_io import history_summary
from repro.hitlist.sources import FlakySource, SourceUnavailable, StaticSource
from repro.protocols import ALL_PROTOCOLS, Protocol
from repro.runtime import (
    FaultPlan,
    LossBurst,
    RateLimit,
    RetryPolicy,
    SourceOutage,
    VantageDegradation,
    VantageOutage,
    load_fault_plan,
)
from repro.scan.loss import LossModel
from repro.scan.scheduler import IncrementalScheduler
from repro.scan.zmap import ZMapScanner
from repro.simnet import build_internet

from tests.runtime.conftest import SCAN_DAYS


class TestFaultPlanPrimitives:
    def test_vantage_down_window(self):
        plan = FaultPlan(outages=(VantageOutage(10, 12),))
        assert [plan.vantage_down(d) for d in range(9, 14)] == [
            False, True, True, True, False,
        ]

    def test_outage_days_subtracted_half_open(self):
        plan = FaultPlan(outages=(VantageOutage(10, 12), VantageOutage(11, 15)))
        # (9, 20] covers the merged window 10..15 entirely
        assert plan.fleet_outage_days_between(9, 20, ()) == 6
        # (12, 20] only covers 13..15
        assert plan.fleet_outage_days_between(12, 20, ()) == 3
        assert plan.fleet_outage_days_between(15, 20, ()) == 0
        # a fleet of one loses exactly the global days
        assert plan.fleet_outage_days_between(9, 20, ("vp0",)) == 6

    def test_inverted_windows_rejected(self):
        with pytest.raises(ValueError):
            VantageOutage(5, 4)
        with pytest.raises(ValueError):
            LossBurst(5, 4, 0.5)
        with pytest.raises(ValueError):
            SourceOutage("atlas", 5, 4)

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(attempts=2, backoff_days=-1.0)

    def test_burst_hits_same_cohort_every_day(self):
        plan = FaultPlan(seed=3, bursts=(LossBurst(5, 9, 0.25),))
        addresses = [(0x2001 << 112) | n for n in range(4000)]
        victims_by_day = [
            {a for a in addresses if plan.burst_lost(a, day)} for day in range(5, 10)
        ]
        assert all(v == victims_by_day[0] for v in victims_by_day)
        share = len(victims_by_day[0]) / len(addresses)
        assert 0.2 < share < 0.3
        assert not any(plan.burst_lost(a, 4) for a in addresses[:100])

    def test_burst_full_loss_rate_kills_everything(self):
        plan = FaultPlan(seed=3, bursts=(LossBurst(5, 5, 1.0),))
        assert all(plan.burst_lost((7 << 120) | n, 5) for n in range(500))

    def test_rate_limit_order_independent(self):
        plan = FaultPlan(seed=1, rate_limits=(RateLimit(asn=64500, budget=3),))
        targets = [(0xFD << 120) | n for n in range(20)]
        forward = plan.suppressed_responders(
            targets, Protocol.ICMP, 7, lambda a: 64500
        )
        backward = plan.suppressed_responders(
            list(reversed(targets)), Protocol.ICMP, 7, lambda a: 64500
        )
        assert forward == backward
        assert len(forward) == len(targets) - 3

    def test_rate_limit_protocol_scoping(self):
        plan = FaultPlan(rate_limits=(RateLimit(asn=1, budget=0),))
        assert plan.limits_protocol(Protocol.ICMP)
        assert not plan.limits_protocol(Protocol.TCP80)

    def test_roundtrip_and_loading(self):
        plan = FaultPlan(
            seed=11,
            outages=(VantageOutage(1, 2),),
            rate_limits=(RateLimit(asn=9, budget=4, protocols=int(Protocol.UDP53)),),
            bursts=(LossBurst(3, 4, 0.5),),
            source_outages=(SourceOutage("atlas", 5, 6),),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert load_fault_plan(io.StringIO(json.dumps(plan.to_dict()))) == plan

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fault plan fields"):
            FaultPlan.from_dict({"seed": 1, "typo_field": []})
        with pytest.raises(ValueError, match="unknown protocol label"):
            FaultPlan.from_dict(
                {"rate_limits": [{"asn": 1, "budget": 2, "protocols": ["SCTP"]}]}
            )


class TestVantageScopedFaults:
    def test_scoped_outage_roundtrip(self):
        plan = FaultPlan(
            seed=11,
            outages=(
                VantageOutage(1, 2),
                VantageOutage(5, 8, vantage="vp2"),
            ),
            degradations=(VantageDegradation("vp1", 3, 6, 0.25),),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert load_fault_plan(io.StringIO(json.dumps(plan.to_dict()))) == plan

    def test_scoped_entries_do_not_hit_the_global_vantage(self):
        plan = FaultPlan(outages=(VantageOutage(5, 8, vantage="vp2"),))
        assert not plan.vantage_down(6)
        assert plan.view_for("vp2", 1).vantage_down(6)
        assert not plan.view_for("vp1", 1).vantage_down(6)

    def test_overlapping_same_vantage_windows_rejected(self):
        with pytest.raises(ValueError, match=r"overlapping.*vp1"):
            FaultPlan.from_dict({
                "vantage_outages": [
                    {"vantage": "vp1", "start_day": 5, "end_day": 10},
                    {"vantage": "vp1", "start_day": 8, "end_day": 12},
                ],
            })

    def test_overlapping_global_windows_rejected(self):
        with pytest.raises(ValueError, match=r"overlapping.*<global>"):
            FaultPlan.from_dict({
                "vantage_outages": [
                    {"start_day": 5, "end_day": 10},
                    {"start_day": 10, "end_day": 12},
                ],
            })

    def test_different_vantages_may_overlap(self):
        plan = FaultPlan.from_dict({
            "vantage_outages": [
                {"vantage": "vp1", "start_day": 5, "end_day": 10},
                {"vantage": "vp2", "start_day": 8, "end_day": 12},
            ],
        })
        assert plan.fleet_vantage_ids == frozenset({"vp1", "vp2"})

    def test_out_of_range_days_rejected_naming_the_entry(self):
        with pytest.raises(ValueError, match=r"out-of-range.*start_day=-3"):
            FaultPlan.from_dict({
                "vantage_outages": [
                    {"vantage": "vp1", "start_day": -3, "end_day": 2},
                ],
            })

    def test_overlapping_degradations_rejected(self):
        with pytest.raises(ValueError, match="vantage_degradations"):
            FaultPlan.from_dict({
                "vantage_degradations": [
                    {"vantage": "vp1", "start_day": 0, "end_day": 9,
                     "extra_loss_rate": 0.1},
                    {"vantage": "vp1", "start_day": 4, "end_day": 6,
                     "extra_loss_rate": 0.2},
                ],
            })

    def test_degradation_validation(self):
        with pytest.raises(ValueError):
            VantageDegradation("", 0, 1, 0.1)
        with pytest.raises(ValueError):
            VantageDegradation("vp1", 5, 4, 0.1)
        with pytest.raises(ValueError):
            VantageDegradation("vp1", 0, 1, 1.5)

    def test_view_lowers_scoped_faults(self):
        plan = FaultPlan(
            seed=7,
            outages=(
                VantageOutage(1, 2),
                VantageOutage(5, 8, vantage="vp2"),
                VantageOutage(20, 22, vantage="vp1"),
            ),
            degradations=(VantageDegradation("vp2", 10, 12, 0.5),),
        )
        view = plan.view_for("vp2", asn=64500)
        # global + own outages become plain outages; vp1's vanishes
        assert view.vantage_down(1) and view.vantage_down(6)
        assert not view.vantage_down(21)
        # the degradation turns into a loss burst for this vantage only
        assert any(b.active(11) and b.loss_rate == 0.5 for b in view.bursts)
        assert view.seed != plan.view_for("vp1", asn=64501).seed

    def test_fleet_outage_days_require_everyone_down(self):
        plan = FaultPlan(
            outages=(
                VantageOutage(10, 12),                    # global
                VantageOutage(20, 24, vantage="vp1"),
                VantageOutage(22, 26, vantage="vp2"),
            ),
        )
        vantages = ("vp1", "vp2")
        # global window: 3 days; scoped windows only intersect on 22..24
        assert plan.fleet_outage_days_between(9, 30, vantages) == 6
        # a single member's downtime never counts against the fleet
        assert plan.fleet_outage_days_between(19, 21, vantages) == 0
        # without members only global outages count
        assert plan.fleet_outage_days_between(9, 30, ()) == 3


def _icmp(scanner, targets, day):
    """ICMP responders of one engine scan of ``targets``."""
    results, _udp53 = scanner.scan_all_protocols(targets, day, "www.google.com")
    return results[Protocol.ICMP].responders


class TestRetryPolicy:
    def test_attempt_zero_matches_single_shot(self, world, config):
        """attempts=1 must reproduce the seed scanner bit-for-bit."""
        targets = sorted(world.ground_truth.get("initial_input"))[:3000]
        single = ZMapScanner(world, loss_rate=0.05, seed=config.seed)
        retried = ZMapScanner(
            world, loss_rate=0.05, seed=config.seed, retry=RetryPolicy(attempts=1)
        )
        assert _icmp(single, targets, 30) == _icmp(retried, targets, 30)

    def test_more_attempts_recover_lost_probes(self, world, config):
        targets = sorted(world.ground_truth.get("initial_input"))[:3000]
        results = {}
        for attempts in (1, 3):
            scanner = ZMapScanner(
                world, loss_rate=0.2, seed=config.seed,
                retry=RetryPolicy(attempts=attempts),
            )
            results[attempts] = _icmp(scanner, targets, 30)
        assert results[3] > results[1]  # strict superset at 20 % loss

    def test_retry_does_not_recover_burst_loss(self, world, config):
        plan = FaultPlan(seed=config.seed, bursts=(LossBurst(30, 30, 1.0),))
        scanner = ZMapScanner(
            world, loss_rate=0.0, seed=config.seed,
            fault_plan=plan, retry=RetryPolicy(attempts=5),
        )
        targets = sorted(world.ground_truth.get("initial_input"))[:500]
        assert not _icmp(scanner, targets, 30)


class TestBurstDays:
    """Scans resolve the day's loss bursts once: a burst-free day of the
    CI fault-smoke plan makes no per-target burst call, in the fused
    scan, the APD wave or the scheduler's loss replay."""

    #: the CI fault-smoke job's faults.json: a burst over days 70-84
    SMOKE = {
        "seed": 7,
        "vantage_outages": [{"start_day": 42, "end_day": 49}],
        "rate_limits": [{"asn": 1, "budget": 5, "protocols": ["ICMP"]}],
        "loss_bursts": [{"start_day": 70, "end_day": 84, "loss_rate": 0.5}],
        "source_outages": [{"source": "atlas", "start_day": 20, "end_day": 40}],
    }

    @pytest.fixture
    def burst_calls(self, monkeypatch):
        """Every per-target burst test, by the prober that made it."""
        calls = []
        resolve = FaultPlan.bursts_on

        def counted(plan, day):
            lost = resolve(plan, day)
            if lost is None:
                return None

            def counting(address):
                calls.append(address)
                return lost(address)

            return counting

        monkeypatch.setattr(FaultPlan, "bursts_on", counted)
        return calls

    def test_burst_free_day_makes_no_per_target_call(self, world, config, burst_calls):
        plan = FaultPlan.from_dict(self.SMOKE)
        targets = sorted(world.ground_truth.get("initial_input"))[:1500]
        scanner = ZMapScanner(
            world, seed=config.seed, fault_plan=plan, retry=RetryPolicy(attempts=2)
        )
        scheduler = IncrementalScheduler(
            loss=LossModel(config.seed, attempts=2, fault_plan=plan)
        )
        probers = (
            lambda day: scanner.scan_all_protocols(targets, day, "www.google.com"),
            lambda day: scanner.apd_wave_bitmaps([targets[:300], targets[300:]], day),
            lambda day: scheduler._replay(targets, day),
        )
        for probe in probers:
            probe(60)  # after the outage, before the burst
            assert burst_calls == []
            probe(77)  # inside the burst: one test per probed target
            assert len(burst_calls) > len(targets) // 2
            del burst_calls[:]
        assert plan.bursts_on(60) is None

    def test_day_filter_matches_frozen_formula(self):
        plan = FaultPlan(seed=3, bursts=(
            LossBurst(5, 9, 0.25), LossBurst(8, 12, 0.4), LossBurst(20, 20, 1.0),
        ))
        span = 1 << 64

        def reference(address, day):
            # the per-address test before the day's windows were hoisted
            for burst in plan.bursts:
                if not burst.active(day):
                    continue
                draw = mix64((address & (span - 1)) ^ (address >> 64)
                             ^ mix64(plan.seed ^ 0xB0B5))
                start = mix64(plan.seed ^ (burst.start_day << 16)
                              ^ burst.end_day ^ 0xFA11)
                if (draw - start) % span < int(burst.loss_rate * span):
                    return True
            return False

        addresses = [(0x2001 << 112) | n * 7919 for n in range(2000)]
        for day in (4, 5, 8, 10, 13, 20):
            expected = [reference(a, day) for a in addresses]
            lost = plan.bursts_on(day)
            assert (lost is None) == (day in (4, 13))
            if lost is not None:
                assert list(map(lost, addresses)) == expected
                assert 0 < sum(expected)
            assert [plan.burst_lost(a, day) for a in addresses] == expected


class TestFaultedService:
    @pytest.fixture(scope="class")
    def faulted_history(self, config):
        plan = FaultPlan(
            seed=config.seed,
            outages=(VantageOutage(40, 47),),
            rate_limits=(RateLimit(asn=1, budget=5),),
            bursts=(LossBurst(64, 72, 0.5),),
            source_outages=(SourceOutage("atlas", 16, 40),),
        )
        service = HitlistService(
            build_internet(config), config,
            settings=ServiceSettings(
                gfw_filter_deploy_day=config.gfw_filter_deploy_day,
                retry_attempts=2,
            ),
            fault_plan=plan,
        )
        return service.run(SCAN_DAYS)

    def test_faulted_run_completes_and_records_degradation(self, faulted_history):
        degraded = {s.day: s.degraded for s in faulted_history.snapshots if s.degraded}
        assert degraded, "no degraded scans recorded"
        outage_days = [d for d, tags in degraded.items() if "vantage_outage" in tags]
        assert outage_days == [40]
        source_days = [d for d, tags in degraded.items() if "source:atlas" in tags]
        assert source_days == [16, 24, 32, 40]

    def test_outage_scan_publishes_nothing(self, faulted_history):
        snapshot = next(s for s in faulted_history.snapshots if s.day == 40)
        assert snapshot.published_total == 0
        assert snapshot.cleaned_total == 0
        assert all(snapshot.published_counts[p] == 0 for p in ALL_PROTOCOLS)

    def test_outage_does_not_fabricate_churn(self, faulted_history):
        outage = next(s for s in faulted_history.snapshots if s.day == 40)
        after = next(s for s in faulted_history.snapshots if s.day == 48)
        assert (outage.churn_new, outage.churn_recurring, outage.churn_gone) == (0, 0, 0)
        # recovery scan diffs against the last *working* scan, so the
        # whole population must not reappear as churn
        assert after.churn_new + after.churn_recurring < after.cleaned_total // 2

    def test_source_window_recovered_after_outage(self, config):
        """A flaky source loses no addresses once its upstream recovers.

        Collections are half-open day windows and a failed source keeps
        its cursor, so the catch-up pull after the outage covers every
        missed day: the run's accumulated input must contain everything
        the source would have delivered without the outage.
        """
        from repro.hitlist.sources import AtlasSource

        plan = FaultPlan(
            seed=config.seed,
            source_outages=(SourceOutage("atlas", 16, 40),),
        )
        faulted = HitlistService(
            build_internet(config), config, fault_plan=plan
        ).run(SCAN_DAYS)
        expected = set()
        atlas = AtlasSource(build_internet(config))
        previous = -1
        for day in SCAN_DAYS:
            expected |= atlas.collect(previous, day)
            previous = day
        assert expected <= faulted.input_ever

    def test_faulted_run_is_seed_deterministic(self, config, faulted_history):
        plan = FaultPlan(
            seed=config.seed,
            outages=(VantageOutage(40, 47),),
            rate_limits=(RateLimit(asn=1, budget=5),),
            bursts=(LossBurst(64, 72, 0.5),),
            source_outages=(SourceOutage("atlas", 16, 40),),
        )
        rerun = HitlistService(
            build_internet(config), config,
            settings=ServiceSettings(
                gfw_filter_deploy_day=config.gfw_filter_deploy_day,
                retry_attempts=2,
            ),
            fault_plan=plan,
        ).run(SCAN_DAYS)
        assert history_summary(rerun) == history_summary(faulted_history)

    def test_faulted_checkpoint_resume_identical(self, config, faulted_history, tmp_path):
        plan = FaultPlan(
            seed=config.seed,
            outages=(VantageOutage(40, 47),),
            rate_limits=(RateLimit(asn=1, budget=5),),
            bursts=(LossBurst(64, 72, 0.5),),
            source_outages=(SourceOutage("atlas", 16, 40),),
        )
        settings = ServiceSettings(
            gfw_filter_deploy_day=config.gfw_filter_deploy_day, retry_attempts=2
        )
        service = HitlistService(
            build_internet(config), config, settings=settings, fault_plan=plan
        )

        class Killed(Exception):
            pass

        original = service.run_scan
        executed = {"count": 0}

        def dying_run_scan(day, prev_day, force_full=False):
            if executed["count"] == 7:  # dies mid-vantage-outage recovery
                raise Killed()
            executed["count"] += 1
            return original(day, prev_day, force_full=force_full)

        service.run_scan = dying_run_scan
        with pytest.raises(Killed):
            service.run(SCAN_DAYS, checkpoint_every=1, checkpoint_path=str(tmp_path))
        resumed = HitlistService.resume(str(tmp_path))
        assert resumed.fault_plan == plan
        assert history_summary(resumed.run()) == history_summary(faulted_history)


class TestFlakySource:
    def test_raises_only_inside_window(self):
        plan = FaultPlan(source_outages=(SourceOutage("feed", 5, 6),))
        source = FlakySource(StaticSource("feed", [42], available_day=3), plan)
        assert source.collect(2, 4) == {42}
        with pytest.raises(SourceUnavailable, match="day 5"):
            source.collect(4, 5)
        assert source.collect(6, 7) == set()

    def test_service_skips_raising_source(self, config):
        """Any exception from a source degrades the scan, never kills it."""

        class Exploding(StaticSource):
            def collect(self, start_day, end_day):
                raise RuntimeError("boom")

        service = HitlistService(
            build_internet(config), config,
            sources=[Exploding("broken", [])],
        )
        history = service.run(SCAN_DAYS[:3])
        assert all("source:broken" in s.degraded for s in history.snapshots)
