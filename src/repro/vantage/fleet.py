"""The scan fleet: sharding, failover, reconciliation.

Every campaign scans through a :class:`VantageFleet`, whose members
are one :class:`~repro.scan.zmap.ZMapScanner` each; the fleet calls a
member's ``scan_all_protocols`` directly.  A fleet of one is the
campaign's own vantage (the paper's TUM vantage): its member
probes the campaign world with the campaign's fault plan and seed, and
the fleet adds no sharding, reconciliation, metric families, snapshot
block or checkpoint state.  That rule lives in this module only.

A fleet of N > 1 simulated vantage points puts each member at a
distinct AS location and therefore with distinct path behaviour: its
own Great-Firewall side (via
:meth:`repro.simnet.internet.SimInternet.vantage_view`), its own loss
and burst draws, and its own per-AS rate-limit exposure (via
:meth:`repro.runtime.faults.FaultPlan.view_for`).

The coordinator shards the target pool by rendezvous hashing: every
target carries a deterministic preference ranking over all vantages,
its *owner* is the highest-ranked live member, and when the owner is
down the target automatically re-shards to the next-ranked survivor —
no rebalancing state, no migration, identical answers on every
rerun.  A deterministic ``overlap`` fraction of targets are *witness*
targets probed by a small panel of vantages; their disagreeing verdicts
are reconciled by a configurable quorum (strict / majority / any, see
:mod:`repro.vantage.quorum`) and exported as per-vantage disagreement
metrics.

Failed vantages are retried with exponential backoff: a member observed
down during a partial failure is quarantined for ``min(2**failures,
16)`` days after its last failure before the coordinator trusts it
again.  All fleet survival state (failure counts, quarantine deadlines,
per-vantage probe totals) rides in service checkpoints, so a campaign
killed mid-reconciliation resumes bit-identically.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro._util import mix64
from repro.protocols import Protocol
from repro.scan.zmap import ZMapScanner
from repro.vantage.quorum import quorum_size, validate_policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scan.scheduler import CarriedScan

_M64 = 0xFFFFFFFFFFFFFFFF
_UINT64_SPAN = 1 << 64
#: witness targets are cross-checked by at most this many vantages
WITNESS_PANEL = 3
#: quarantine ceiling: a flapping vantage is retried at least this often
MAX_BACKOFF_DAYS = 16
#: default fraction of targets probed by a witness panel (1/16 keeps the
#: probe overhead at 3 vantages near 1 + 2/16 = 1.125x a single vantage)
DEFAULT_OVERLAP = 0.0625

_FAST_PROTOCOLS = (Protocol.ICMP, Protocol.TCP80, Protocol.TCP443,
                   Protocol.UDP443)


@dataclass(frozen=True)
class VantageSpec:
    """Identity and location of one fleet member."""

    vid: str
    name: str
    asn: int
    country: str
    inside_gfw: bool
    seed: int


def default_vantage_specs(internet, base_seed: int, count: int) -> Tuple[VantageSpec, ...]:
    """A deterministic fleet of ``count`` vantage points.

    Vantage 0 is the paper's vantage (TUM, AS 56357, outside the GFW).
    Further members are drawn from the scenario's AS registry in sorted
    ASN order; every third member sits *inside* the Great Firewall when
    the registry has Chinese ASes, so quorum reconciliation has real
    path-dependent disagreements to resolve, not just loss noise.
    """
    if count < 1:
        raise ValueError(f"fleet needs at least one vantage, got {count}")
    from repro.asn.topology import VantagePoint

    anchor = VantagePoint()
    specs: List[VantageSpec] = [VantageSpec(
        vid="vp0", name=anchor.name, asn=anchor.asn, country=anchor.country,
        inside_gfw=anchor.inside_gfw,
        seed=mix64(base_seed ^ anchor.asn ^ 0x5EED_F1EE7),
    )]
    chinese = sorted(internet.registry.chinese_asns())
    foreign = sorted(
        info.asn for info in internet.registry if not info.is_chinese
    )
    used = {anchor.asn}
    chinese_cursor = foreign_cursor = 0
    for index in range(1, count):
        inside = bool(chinese) and index % 3 == 2
        pool, cursor = (
            (chinese, chinese_cursor) if inside else (foreign, foreign_cursor)
        )
        asn = None
        while pool and cursor < len(pool):
            candidate = pool[cursor]
            cursor += 1
            if candidate not in used:
                asn = candidate
                break
        if inside:
            chinese_cursor = cursor
        else:
            foreign_cursor = cursor
        if asn is None:
            # registry exhausted: synthesize a stable private-use ASN
            asn = 64512 + index
        used.add(asn)
        info = internet.registry.get(asn)
        specs.append(VantageSpec(
            vid=f"vp{index}",
            name=info.name if info is not None else f"vantage-{index}",
            asn=asn,
            country=info.country if info is not None else "ZZ",
            inside_gfw=inside,
            seed=mix64(base_seed ^ asn ^ 0x5EED_F1EE7),
        ))
    return tuple(specs)


@dataclass
class FleetRoster:
    """Which vantages take part in one scan day (and why the rest don't)."""

    day: int
    live: Tuple[str, ...]
    down: Tuple[str, ...] = ()
    backoff: Tuple[str, ...] = ()

    @property
    def all_down(self) -> bool:
        return not self.live


@dataclass
class FleetScanReport:
    """Reconciliation bookkeeping of one fleet scan, JSON-plain."""

    roster: FleetRoster
    resharded: int = 0
    witness_targets: int = 0
    quorum_policy: str = "majority"
    quorum_accepted: int = 0
    quorum_rejected: int = 0
    disagreements: Dict[str, int] = field(default_factory=dict)
    per_vantage: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {
            "live": list(self.roster.live),
            "down": list(self.roster.down),
            "backoff": list(self.roster.backoff),
            "resharded": self.resharded,
            "witness_targets": self.witness_targets,
            "quorum": {
                "policy": self.quorum_policy,
                "accepted": self.quorum_accepted,
                "rejected": self.quorum_rejected,
            },
            "disagreements": dict(sorted(self.disagreements.items())),
            "per_vantage": {
                vid: dict(stats)
                for vid, stats in sorted(self.per_vantage.items())
            },
        }


class VantageFleet:
    """Coordinates per-vantage scanners and reconciles their verdicts."""

    def __init__(
        self,
        internet,
        specs: Sequence[VantageSpec],
        *,
        seed: int = 0,
        loss_rate: float = 0.03,
        quorum: str = "majority",
        overlap: float = DEFAULT_OVERLAP,
        blocklist=None,
        fault_plan=None,
        retry=None,
        metrics=None,
        tracer=None,
    ) -> None:
        if not specs:
            raise ValueError("fleet needs at least one vantage spec")
        if not 0.0 <= overlap <= 1.0:
            raise ValueError(f"overlap fraction out of range: {overlap}")
        self.specs = tuple(specs)
        self.quorum_policy = validate_policy(quorum)
        #: a fleet of one is the campaign's own vantage (module docstring)
        self._solo = len(self.specs) == 1
        if fault_plan is not None:
            self._check_scoped_faults(fault_plan)
        self._internet = internet
        self._blocklist = blocklist
        self._fault_plan = fault_plan
        self._tracer = tracer
        self._witness_threshold = int(overlap * _UINT64_SPAN)
        self._witness_salt = mix64(seed ^ 0x717E55)
        self._salts = tuple(
            mix64(seed ^ spec.seed ^ 0xD15C0) for spec in self.specs
        )
        #: target -> (preference ranking over spec indices, witness flag);
        #: a pure-function memo, deliberately not checkpointed
        self._rank_cache: Dict[int, Tuple[Tuple[int, ...], bool]] = {}
        #: (live indices) -> target -> (panel, resharded, dedup);
        #: derived from the rank memo, equally pure and uncheckpointed
        self._assign_cache: Dict[
            Tuple[int, ...], Dict[int, Tuple[Tuple[int, ...], bool, int]]
        ] = {}
        #: (live indices) -> (sorted pool, shard plan); see :meth:`_shard`
        self._plan_cache: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], tuple]] = {}

        self.views = []
        self.scanners: List[ZMapScanner] = []
        self.plans = []
        for spec in self.specs:
            if self._solo:
                view, plan, member_seed, label = (
                    internet, fault_plan, seed, None
                )
            else:
                view = internet.vantage_view(spec.inside_gfw)
                plan = (
                    fault_plan.view_for(spec.vid, spec.asn)
                    if fault_plan is not None else None
                )
                member_seed, label = spec.seed, spec.vid
            scanner = ZMapScanner(
                view, blocklist=blocklist, loss_rate=loss_rate,
                seed=member_seed, fault_plan=plan, retry=retry,
                metrics=metrics, tracer=tracer, vantage=label,
            )
            self.views.append(view)
            self.plans.append(plan)
            self.scanners.append(scanner)

        # durable fleet survival state — rides in checkpoints
        self._fail_counts: Dict[str, int] = {}
        self._quarantine_until: Dict[str, int] = {}

        self._m_scans = self._m_targets = None
        if metrics is not None and not self._solo:
            self._m_scans = metrics.counter(
                "repro_vantage_scans_total",
                "Fleet scan participations, by vantage and outcome.",
                ("vantage", "outcome"))
            self._m_targets = metrics.counter(
                "repro_vantage_targets_total",
                "Targets sharded to each vantage across the campaign.",
                ("vantage",))
            self._m_disagreements = metrics.counter(
                "repro_vantage_disagreements_total",
                "Witness targets whose vantage verdicts split, by protocol.",
                ("protocol",))
            self._m_quorum = metrics.counter(
                "repro_vantage_quorum_total",
                "Quorum decisions on disagreeing witness verdicts.",
                ("decision",))
            self._m_resharded = metrics.counter(
                "repro_vantage_resharded_total",
                "Targets probed by a non-preferred vantage because their "
                "owner was down or quarantined.")
            self._m_live = metrics.gauge(
                "repro_vantage_live", "Live fleet members at the last scan.")

    @property
    def vantage_ids(self) -> Tuple[str, ...]:
        """All member ids, in spec order."""
        return tuple(spec.vid for spec in self.specs)

    def _check_scoped_faults(self, fault_plan) -> None:
        """Reject faults scoped to vantages this fleet does not have.

        Such a fault would otherwise be dropped without a trace.  A
        fleet of one is the campaign's own vantage and takes global
        faults only.
        """
        members = set() if self._solo else set(self.vantage_ids)
        unknown = sorted(fault_plan.fleet_vantage_ids - members)
        if unknown:
            hint = (
                "a single vantage takes no vantage-scoped faults"
                if self._solo
                else f"fleet members are {', '.join(self.vantage_ids)}"
            )
            raise ValueError(
                f"fault plan names unknown vantage(s) "
                f"{', '.join(unknown)}; {hint}"
            )

    # ------------------------------------------------------------------
    # survival state

    def roster(self, day: int) -> FleetRoster:
        """Who scans today — and update retry/backoff bookkeeping.

        Call exactly once per scan day (the service does, in its stand-
        down stage): failure counts and quarantine deadlines advance
        here, deterministically from (fault plan, scan schedule).  A
        member observed down during a *partial* failure is quarantined
        for ``min(2**failures, 16)`` days past the failure; a global
        outage (everyone down) stands the scan down and does not count
        against individual members.  A fleet of one names no member as
        down or backed off: its outage is the campaign's stand-down.
        """
        if self._solo:
            plan = self.plans[0]
            up = plan is None or not plan.vantage_down(day)
            return FleetRoster(day=day, live=self.vantage_ids if up else ())
        down: List[str] = []
        candidates: List[str] = []
        for spec, plan in zip(self.specs, self.plans):
            if plan is not None and plan.vantage_down(day):
                down.append(spec.vid)
            else:
                candidates.append(spec.vid)
        backoff = [
            vid for vid in candidates
            if day < self._quarantine_until.get(vid, 0)
        ]
        live = tuple(vid for vid in candidates if vid not in backoff)
        if live:
            if down:
                for vid in down:
                    failures = self._fail_counts.get(vid, 0) + 1
                    self._fail_counts[vid] = failures
                    self._quarantine_until[vid] = day + min(
                        1 << failures, MAX_BACKOFF_DAYS
                    )
            for vid in live:
                self._fail_counts[vid] = 0
        if self._m_scans is not None:
            for vid in down:
                self._m_scans.labels(vantage=vid, outcome="down").inc()
            for vid in backoff:
                self._m_scans.labels(vantage=vid, outcome="backoff").inc()
            self._m_live.set(len(live))
        return FleetRoster(
            day=day, live=live, down=tuple(down), backoff=tuple(backoff)
        )

    def standdown_block(self, roster: FleetRoster) -> Optional[Dict[str, object]]:
        """The snapshot ``vantage`` block of a day with no live member;
        None for a fleet of one."""
        if self._solo:
            return None
        return {
            "live": [],
            "down": list(roster.down),
            "backoff": list(roster.backoff),
        }

    def state_dict(self) -> Optional[Dict[str, object]]:
        """Durable fleet state for checkpoints; None for a fleet of one,
        whose only state is its scanner's ``probes_sent``."""
        if self._solo:
            return None
        return {
            "fail_counts": {
                vid: count
                for vid, count in sorted(self._fail_counts.items())
                if count
            },
            "quarantine_until": dict(sorted(self._quarantine_until.items())),
            "probes_sent": [scanner.probes_sent for scanner in self.scanners],
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore :meth:`state_dict` output after a resume."""
        self._fail_counts = {
            str(vid): int(count)
            for vid, count in state.get("fail_counts", {}).items()
        }
        self._quarantine_until = {
            str(vid): int(day)
            for vid, day in state.get("quarantine_until", {}).items()
        }
        for scanner, probes in zip(
            self.scanners, state.get("probes_sent", ())
        ):
            scanner.probes_sent = int(probes)

    # ------------------------------------------------------------------
    # sharding

    def _rank(self, target: int) -> Tuple[Tuple[int, ...], bool]:
        """(vantage preference ranking, witness flag) for one target."""
        entry = self._rank_cache.get(target)
        if entry is None:
            tkey = (target & _M64) ^ (target >> 64)
            salts = self._salts
            ranking = tuple(sorted(
                range(len(salts)),
                key=lambda index: mix64(tkey ^ salts[index]),
                reverse=True,
            ))
            witness = mix64(tkey ^ self._witness_salt) < self._witness_threshold
            entry = (ranking, witness)
            self._rank_cache[target] = entry
        return entry

    def _shard(
        self,
        targets: Sequence[int],
        live_key: Tuple[int, ...],
        live_set: Set[int],
        panel_size: int,
    ) -> Tuple[Dict[int, List[int]], List[Tuple[int, Tuple[int, ...]]], int, int]:
        """Shard plan for (target pool, live members), cached for repeats.

        Returns ``(assignments, witness_panels, resharded, witness_dedup)``
        where ``witness_dedup`` is the total count of duplicate probes a
        witness panel adds over single-owner sharding (blocked targets
        excluded — they never enter a scanner's count).  The plan is a
        pure function of the sorted pool and the live set; campaigns
        frequently re-scan an unchanged pool (repeat scan days, candidate
        evaluation), so the latest plan per live set is kept and returned
        outright when the pool matches.  Callers must treat the returned
        structures as read-only.
        """
        pool = tuple(sorted(targets))
        cached = self._plan_cache.get(live_key)
        if cached is not None and cached[0] == pool:
            return cached[1]

        # per-(live set) assignment memo: one dict hit per already-seen
        # target even when the pool itself changed.  Entries are
        # (panel, resharded, dedup contribution).
        memo = self._assign_cache.get(live_key)
        if memo is None:
            memo = self._assign_cache[live_key] = {}
        memo_get = memo.get
        is_blocked = (
            self._blocklist.is_blocked if self._blocklist is not None
            else None
        )

        assignments: Dict[int, List[int]] = {i: [] for i in live_key}
        witness_panels: List[Tuple[int, Tuple[int, ...]]] = []
        panels_append = witness_panels.append
        resharded = 0
        witness_dedup = 0
        for target in pool:
            entry = memo_get(target)
            if entry is None:
                ranking, witness = self._rank(target)
                reshard = ranking[0] not in live_set
                if witness and panel_size > 1:
                    panel = tuple(
                        i for i in ranking if i in live_set
                    )[:panel_size]
                    dedup = len(panel) - 1
                    if is_blocked is not None and is_blocked(target):
                        dedup = 0
                else:
                    panel = (next(i for i in ranking if i in live_set),)
                    dedup = -1
                entry = (panel, reshard, dedup)
                memo[target] = entry
            panel, reshard, dedup = entry
            if reshard:
                resharded += 1
            if dedup < 0:
                assignments[panel[0]].append(target)
            else:
                for i in panel:
                    assignments[i].append(target)
                panels_append((target, panel))
                witness_dedup += dedup
        plan = (assignments, witness_panels, resharded, witness_dedup)
        self._plan_cache[live_key] = (pool, plan)
        return plan

    # ------------------------------------------------------------------
    # scanning

    def scan(
        self, targets: Sequence[int], day: int, qname: str,
        roster: Optional[FleetRoster] = None,
        carried: Optional["CarriedScan"] = None,
    ):
        """One fleet scan: shard, probe per vantage, reconcile.

        Returns ``(results, udp53, report)`` shaped exactly like the
        single-scanner :meth:`~repro.scan.zmap.ZMapScanner.
        scan_all_protocols` output plus a :class:`FleetScanReport`.  A
        fleet of one hands the scan straight to its scanner and reports
        None.  Deterministic for any (vantage count x fault schedule):
        targets are walked in sorted order, vantages in spec
        order, and every reconciliation decision is a pure function of
        the per-vantage responder sets.

        ``carried`` holds the incremental scheduler's carried-forward
        responders.  Scheduler priorities are fleet-global, so carried
        targets never enter sharding or witness panels — they merge
        into the reconciled result after quorum, exactly as the
        single-scanner path merges them after its metrics flush.
        """
        if self._solo:
            results, udp53 = self.scanners[0].scan_all_protocols(
                targets, day, qname, carried=carried
            )
            return results, udp53, None
        from repro.scan.zmap import ScanResult, Udp53Result

        if roster is None:
            roster = self.roster(day)
        if roster.all_down:
            raise RuntimeError(
                f"fleet scan on day {day} with no live vantages; the "
                f"service should have stood down instead"
            )
        report = FleetScanReport(
            roster=roster, quorum_policy=self.quorum_policy
        )
        index_of = {spec.vid: i for i, spec in enumerate(self.specs)}
        live_indices = [index_of[vid] for vid in roster.live]
        live_set = set(live_indices)
        panel_size = min(len(live_indices), WITNESS_PANEL)

        live_key = tuple(live_indices)
        assignments, witness_panels, resharded, witness_dedup = self._shard(
            targets, live_key, live_set, panel_size
        )
        report.resharded = resharded
        report.witness_targets = len(witness_panels)

        # per-vantage probing, in spec order; each member's control-NS
        # traffic is folded back into the parent log deterministically
        per_results: Dict[int, Dict[Protocol, ScanResult]] = {}
        per_udp: Dict[int, Udp53Result] = {}
        tracer = self._tracer
        for i in live_indices:
            spec = self.specs[i]
            sharded = assignments[i]
            with (
                tracer.span(
                    "vantage-scan", day=day, vantage=spec.vid,
                    targets=len(sharded),
                )
                if tracer is not None else nullcontext()
            ):
                results_i, udp_i = self.scanners[i].scan_all_protocols(
                    sharded, day, qname
                )
            per_results[i] = results_i
            per_udp[i] = udp_i
            view_log = self.views[i].control_ns_log
            if view_log:
                self._internet.control_ns_log.extend(view_log)
                del view_log[:]
            report.per_vantage[spec.vid] = {
                "targets": len(sharded), "dissent": 0,
            }
            if self._m_scans is not None:
                self._m_scans.labels(vantage=spec.vid, outcome="ok").inc()
                self._m_targets.labels(vantage=spec.vid).inc(len(sharded))

        with (
            tracer.span("reconcile", day=day)
            if tracer is not None else nullcontext()
        ):
            merged = self._reconcile(
                day, qname, witness_panels, witness_dedup, live_indices,
                per_results, per_udp, report, carried,
            )
        if self._m_scans is not None:
            self._m_resharded.inc(resharded)
            for label, split in sorted(report.disagreements.items()):
                self._m_disagreements.labels(protocol=label).inc(split)
            self._m_quorum.labels(decision="accepted").inc(
                report.quorum_accepted)
            self._m_quorum.labels(decision="rejected").inc(
                report.quorum_rejected)
        return merged[0], merged[1], report

    def _reconcile(
        self, day, qname, witness_panels, witness_dedup, live_indices,
        per_results, per_udp, report, carried=None,
    ):
        """Merge per-vantage verdicts into one published scan result."""
        from repro.scan.zmap import ScanResult, Udp53Result

        policy = self.quorum_policy
        witness_set = {target for target, _panel in witness_panels}

        # distinct scannable targets: members report their own counts,
        # witness targets are deduplicated across their panel
        count = sum(per_udp[i].targets for i in live_indices) - witness_dedup

        fast_sets: Dict[Protocol, Set[int]] = {}
        for protocol in _FAST_PROTOCOLS:
            merged: Set[int] = set()
            for i in live_indices:
                merged |= per_results[i][protocol].responders - witness_set
            fast_sets[protocol] = merged
        # non-witness shards are disjoint across members, so each
        # member's response rows land unconflicted in the merged table
        udp_responders: Set[int] = set()
        udp_responses = per_udp[live_indices[0]].responses.empty_copy()
        for i in live_indices:
            udp_i = per_udp[i]
            keep = udp_i.responders - witness_set
            udp_responders |= keep
            udp_responses.take(udp_i.responses, keep)

        # Witness votes via set algebra: targets sharing a panel are
        # reconciled together, one intersection per (panel member,
        # protocol), so the cost scales with responder counts instead of
        # witnesses x protocols x panel.  A member's per-target vote is
        # its hit-set membership; verdicts, splits and dissent all fall
        # out of hit counts — every operation commutes, so grouping
        # changes nothing about the published sets.
        dissent = {vid: 0 for vid in report.roster.live}
        vid_of = {i: self.specs[i].vid for i in live_indices}
        groups: Dict[Tuple[int, ...], List[int]] = {}
        for target, panel in witness_panels:
            groups.setdefault(panel, []).append(target)
        udp53_label = Protocol.UDP53.label
        for panel, group_targets in sorted(groups.items()):
            group = frozenset(group_targets)
            voters = len(panel)
            needed = quorum_size(policy, voters)
            lanes = [
                (protocol.label,
                 [per_results[i][protocol].responders & group for i in panel],
                 fast_sets[protocol])
                for protocol in _FAST_PROTOCOLS
            ]
            lanes.append((
                udp53_label,
                [per_udp[i].responders & group for i in panel],
                udp_responders,
            ))
            for label, hits, merged in lanes:
                unanimous = hits[0].intersection(*hits[1:])
                if needed == voters:
                    accepted = unanimous
                    splits = set().union(*hits) - unanimous
                elif needed == 1:
                    accepted = set().union(*hits)
                    splits = accepted - unanimous
                else:
                    splits = set().union(*hits) - unanimous
                    accepted = set(unanimous)
                    for target in splits:
                        if sum(
                            1 for member_hits in hits
                            if target in member_hits
                        ) >= needed:
                            accepted.add(target)
                merged |= accepted
                if splits:
                    report.disagreements[label] = (
                        report.disagreements.get(label, 0) + len(splits)
                    )
                    accepted_splits = len(accepted) - len(unanimous)
                    report.quorum_accepted += accepted_splits
                    report.quorum_rejected += len(splits) - accepted_splits
                    # a member dissents wherever its vote differs from
                    # the verdict: hit-but-rejected or miss-but-accepted
                    for i, member_hits in zip(panel, hits):
                        dissent[vid_of[i]] += len(member_hits ^ accepted)
                if label is udp53_label:
                    # answers come from the highest-ranked vantage that
                    # heard any — path-dependent forgeries included, by
                    # design
                    for target in accepted:
                        for i in panel:
                            responses = per_udp[i].responses
                            if target in responses:
                                udp_responses.take(responses, (target,))
                                break
        for vid, split_votes in dissent.items():
            report.per_vantage[vid]["dissent"] = split_votes

        if carried is not None and carried.targets:
            count += carried.targets
            for protocol, replayed in zip(_FAST_PROTOCOLS, carried.fast):
                fast_sets[protocol] |= replayed
            udp_responders |= carried.udp_responders
        results = {
            protocol: ScanResult(
                protocol=protocol, day=day, targets=count,
                responders=frozenset(fast_sets[protocol]),
            )
            for protocol in _FAST_PROTOCOLS
        }
        udp53 = Udp53Result(
            day=day, qname=qname, targets=count,
            responders=udp_responders, responses=udp_responses,
        )
        return results, udp53
