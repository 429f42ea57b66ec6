"""Fleet coordinator unit properties: sharding, failover, reconciliation.

The contracts under test, independent of the service pipeline: a
one-member fleet is the campaign's own vantage, bit-identical to a bare
scan engine at the campaign seed with no fleet state, verdicts are
invariant to the engine's chunk size, dead members' shards re-home
deterministically to the survivors, and the retry/backoff state
round-trips through :meth:`VantageFleet.state_dict`.
"""

import pytest

from repro.obs import MetricsRegistry, registry_to_dict
from repro.runtime.faults import FaultPlan, VantageDegradation, VantageOutage
from repro.scan import engine as engine_module
from repro.scan.zmap import ZMapScanner
from repro.simnet import build_internet, small_config
from repro.vantage import VantageFleet, VantageSpec, default_vantage_specs

QNAME = "blocked.example.com"
DAY = 8


@pytest.fixture(scope="module")
def config():
    return small_config()


@pytest.fixture(scope="module")
def world(config):
    return build_internet(config)


@pytest.fixture(scope="module")
def targets(world):
    return sorted(world.ground_truth.get("initial_input"))[:2500]


def _fleet(config, count, *, fault_plan=None, quorum="majority"):
    world = build_internet(config)
    return VantageFleet(
        world,
        default_vantage_specs(world, config.seed, count),
        seed=config.seed,
        fault_plan=fault_plan,
        quorum=quorum,
    )


class TestDefaultSpecs:
    def test_anchor_is_the_paper_vantage(self, world, config):
        specs = default_vantage_specs(world, config.seed, 4)
        assert specs[0].vid == "vp0"
        assert specs[0].asn == 56357  # TUM, the hitlist service's home
        assert not specs[0].inside_gfw

    def test_members_are_as_diverse(self, world, config):
        specs = default_vantage_specs(world, config.seed, 5)
        assert len({spec.asn for spec in specs}) == 5
        assert len({spec.vid for spec in specs}) == 5

    def test_fleet_straddles_the_gfw(self, world, config):
        # every third member sits inside the firewall, so quorum sees
        # genuine path-dependent disagreements
        specs = default_vantage_specs(world, config.seed, 6)
        inside = [spec.vid for spec in specs if spec.inside_gfw]
        assert inside == ["vp2", "vp5"]

    def test_count_must_be_positive(self, world, config):
        with pytest.raises(ValueError, match="at least one vantage"):
            default_vantage_specs(world, config.seed, 0)

    def test_exhausted_registry_synthesizes_asns(self, world, config):
        specs = default_vantage_specs(world, config.seed, 40)
        assert len({spec.asn for spec in specs}) == 40


class TestFleetConstruction:
    def test_rejects_empty_specs(self, world):
        with pytest.raises(ValueError, match="at least one vantage spec"):
            VantageFleet(world, ())

    def test_rejects_bad_overlap(self, world, config):
        specs = default_vantage_specs(world, config.seed, 2)
        with pytest.raises(ValueError, match="overlap"):
            VantageFleet(world, specs, overlap=1.5)

    def test_rejects_bad_quorum(self, world, config):
        specs = default_vantage_specs(world, config.seed, 2)
        with pytest.raises(ValueError, match="unknown quorum policy"):
            VantageFleet(world, specs, quorum="plurality")

    def test_vantage_ids_in_spec_order(self, world, config):
        fleet = VantageFleet(
            world, default_vantage_specs(world, config.seed, 3)
        )
        assert fleet.vantage_ids == ("vp0", "vp1", "vp2")

    def test_rejects_faults_scoped_to_unknown_vantages(self, world, config):
        plan = FaultPlan(
            outages=(
                VantageOutage(1, 2, vantage="vp1"),
                VantageOutage(3, 4, vantage="vp7"),
            ),
            degradations=(VantageDegradation("vp9", 5, 6, 0.25),),
        )
        specs = default_vantage_specs(world, config.seed, 3)
        with pytest.raises(ValueError, match=r"unknown vantage\(s\) vp7, vp9;"):
            VantageFleet(world, specs, fault_plan=plan)


class TestSingleVantageEquivalence:
    def test_matches_bare_engine_bitwise(self, config, targets):
        """A one-member fleet is the plain scanner at the campaign seed."""
        world = build_internet(config)
        scanner = ZMapScanner(world, seed=config.seed)
        ref_results, ref_udp = scanner.scan_all_protocols(targets, DAY, QNAME)

        fleet = _fleet(config, 1)
        results, udp53, report = fleet.scan(targets, DAY, QNAME)
        for protocol, ref in ref_results.items():
            assert results[protocol].responders == ref.responders
            assert results[protocol].targets == ref.targets
        assert udp53.responders == ref_udp.responders
        assert udp53.responses == ref_udp.responses
        assert udp53.targets == ref_udp.targets
        # a single vantage has no panel, so nothing to reconcile
        assert report is None

    def test_keeps_no_fleet_state(self, config):
        metrics = MetricsRegistry()
        world = build_internet(config)
        plan = FaultPlan(outages=(VantageOutage(DAY, DAY),))
        fleet = VantageFleet(
            world, default_vantage_specs(world, config.seed, 1),
            seed=config.seed, fault_plan=plan, metrics=metrics,
        )
        assert fleet.views == [world]
        assert fleet.plans == [plan]
        roster = fleet.roster(DAY)
        # an outage is the campaign's stand-down, not a member failure
        assert roster.all_down
        assert roster.down == roster.backoff == ()
        assert fleet.standdown_block(roster) is None
        assert fleet.roster(DAY + 1).live == ("vp0",)
        assert fleet.state_dict() is None
        assert not [
            name for name in registry_to_dict(metrics)["metrics"]
            if name.startswith("repro_vantage_")
        ]


class TestMultiVantageScan:
    def test_chunk_partition_invisible(self, config, targets, monkeypatch):
        baseline = None
        # 512 cuts every member's shard into more than one chunk
        for chunk_size in (engine_module.DEFAULT_CHUNK_SIZE, 512):
            monkeypatch.setattr(engine_module, "DEFAULT_CHUNK_SIZE", chunk_size)
            fleet = _fleet(config, 3)
            results, udp53, report = fleet.scan(targets, DAY, QNAME)
            view = (
                {p: r.responders for p, r in results.items()},
                frozenset(udp53.responders),
                dict(udp53.responses),
                report.to_json(),
            )
            if baseline is None:
                baseline = view
            else:
                assert view == baseline

    def test_merged_targets_deduplicate_witnesses(self, config, targets):
        fleet = _fleet(config, 3)
        results, udp53, report = fleet.scan(targets, DAY, QNAME)
        counts = {result.targets for result in results.values()}
        assert counts == {len(targets)}
        assert udp53.targets == len(targets)
        # the witness fraction tracks the configured 1/16 overlap
        assert 0.02 < report.witness_targets / len(targets) < 0.12

    def test_dead_owner_reshards_to_survivors(self, config, targets):
        plan = FaultPlan(
            seed=config.seed,
            outages=(VantageOutage(DAY, DAY, vantage="vp0"),),
        )
        fleet = _fleet(config, 3, fault_plan=plan)
        roster = fleet.roster(DAY)
        assert roster.down == ("vp0",)
        assert roster.live == ("vp1", "vp2")
        results, _udp53, report = fleet.scan(targets, DAY, QNAME, roster)
        assert report.resharded > 0
        assert "vp0" not in report.per_vantage
        probed = sum(
            stats["targets"] for stats in report.per_vantage.values()
        )
        assert probed >= len(targets)
        assert results and all(r.targets == len(targets) for r in results.values())

    def test_degraded_scan_is_deterministic(self, config, targets):
        plan = FaultPlan(
            seed=config.seed,
            outages=(VantageOutage(DAY, DAY, vantage="vp1"),),
        )
        views = []
        for _ in range(2):
            fleet = _fleet(config, 3, fault_plan=plan)
            results, udp53, report = fleet.scan(targets, DAY, QNAME)
            views.append((
                {p: r.responders for p, r in results.items()},
                frozenset(udp53.responders),
                report.to_json(),
            ))
        assert views[0] == views[1]

    def test_all_down_scan_refuses(self, config, targets):
        plan = FaultPlan(
            seed=config.seed, outages=(VantageOutage(DAY, DAY),)
        )
        fleet = _fleet(config, 3, fault_plan=plan)
        roster = fleet.roster(DAY)
        assert roster.all_down
        with pytest.raises(RuntimeError, match="no live vantages"):
            fleet.scan(targets, DAY, QNAME, roster)

    def test_quorum_policy_changes_verdicts(self, config, targets):
        """strict <= majority <= any, per published responder set."""
        sets = {}
        disagreements = {}
        for policy in ("strict", "majority", "any"):
            fleet = _fleet(config, 3, quorum=policy)
            results, udp53, report = fleet.scan(targets, DAY, QNAME)
            sets[policy] = {
                (protocol, responder)
                for protocol, result in results.items()
                for responder in result.responders
            } | {("udp53", responder) for responder in udp53.responders}
            disagreements[policy] = sum(report.disagreements.values())
        assert sets["strict"] <= sets["majority"] <= sets["any"]
        # the vote *splits* are policy-independent; only verdicts differ
        assert len(set(disagreements.values())) == 1
        assert disagreements["strict"] > 0
        # every split flips between strict (reject) and any (accept)
        assert sets["strict"] != sets["any"]


class TestRosterBackoff:
    def _plan(self, config):
        # vp1 down on days 0..2; global outage on day 6
        return FaultPlan(
            seed=config.seed,
            outages=(
                VantageOutage(0, 2, vantage="vp1"),
                VantageOutage(6, 6),
            ),
        )

    def test_backoff_doubles_until_capped(self, config, world):
        fleet = VantageFleet(
            world, default_vantage_specs(world, config.seed, 3),
            seed=config.seed, fault_plan=self._plan(config),
        )
        assert fleet.roster(0).down == ("vp1",)  # fail 1, quarantined to day 2
        assert fleet.roster(1).down == ("vp1",)  # fail 2, quarantined to day 5
        assert fleet.roster(2).down == ("vp1",)  # fail 3, quarantined to day 10
        roster = fleet.roster(3)
        assert roster.down == ()
        assert roster.backoff == ("vp1",)  # healthy but still quarantined
        assert fleet.roster(11).live == ("vp0", "vp1", "vp2")  # recovered

    def test_global_outage_does_not_quarantine(self, config, world):
        fleet = VantageFleet(
            world, default_vantage_specs(world, config.seed, 3),
            seed=config.seed, fault_plan=self._plan(config),
        )
        roster = fleet.roster(6)
        assert roster.all_down
        # a fleet-wide standdown mirrors the singleton vantage outage:
        # nobody failed individually, so nobody is punished after it
        assert fleet.roster(7).live == ("vp0", "vp1", "vp2")

    def test_state_roundtrip(self, config, world):
        specs = default_vantage_specs(world, config.seed, 3)
        fleet = VantageFleet(
            world, specs, seed=config.seed, fault_plan=self._plan(config),
        )
        fleet.roster(0)
        fleet.roster(1)
        state = fleet.state_dict()
        assert state["fail_counts"] == {"vp1": 2}
        assert state["quarantine_until"]["vp1"] == 5

        clone = VantageFleet(
            world, specs, seed=config.seed, fault_plan=self._plan(config),
        )
        clone.restore_state(state)
        assert clone.state_dict() == state
        assert clone.roster(3).backoff == ("vp1",)
