"""Frozen scalar reference of ``repro.scan.scheduler.IncrementalScheduler``.

The production scheduler keeps derived per-prefix state (groups,
refresh phases, member signatures, carry-from days), skips silent
addresses in ``absorb`` and replays loss in lane passes.  This copy of
the straightforward algorithm it replaced recomputes everything from
the serialized state on every call, so differential tests can demand
identical plans, replays and checkpoint state from both.  Policy
constants and data classes come from the production module; the loss
formulas are spelled out here on purpose, as an independent oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro._util import mix64
from repro.protocols import Protocol
from repro.runtime.faults import RETRY_SALT
from repro.scan.scheduler import (
    _FAST_MASK,
    _GROUP_SHIFT,
    _INJECTED_ONLY,
    _REFRESH_SALT,
    _RESPONDER_BITS,
    _ROTATION_SHIFT,
    _SAMPLE_SALT,
    _UINT64_SPAN,
    BIT_INJECTED,
    BIT_UDP53,
    DEFAULT_REFRESH_INTERVAL,
    DEFAULT_SAMPLE_RATE,
    DEGRADE_FACTOR,
    DEGRADE_FLOOR,
    EWMA_ALPHA,
    FAST_BITS,
    FLAP_PENALTY,
    MAX_FLAPS,
    QUIET_AGE_DAYS,
    ROTATION_MIN_PREFIXES,
    STABLE_AFTER,
    CarriedScan,
    PrefixPriority,
    ScanPlan,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gfw.filter import ScanCleaningResult
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime.faults import FaultPlan
    from repro.scan.zmap import ScanResult, Udp53Result

_M64 = 0xFFFFFFFFFFFFFFFF
#: fused fast-probe loss salt of the scan engine
_FAST_SALT = 0x5CA11


class ReferenceScheduler:
    """The incremental scheduler as it was before the derived caches:
    every plan re-groups and re-hashes the whole pool, every absorb
    replays loss per address with four scalar ``mix64`` calls."""

    def __init__(
        self,
        seed: int = 0,
        refresh_interval: int = DEFAULT_REFRESH_INTERVAL,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        loss_rate: float = 0.03,
        retry_attempts: int = 1,
        fault_plan: Optional["FaultPlan"] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        if refresh_interval < 1:
            raise ValueError(f"refresh_interval must be >= 1, got {refresh_interval}")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be within [0, 1], got {sample_rate}")
        self._seed = seed
        self.refresh_interval = refresh_interval
        self.sample_rate = sample_rate
        self._sample_threshold = int(sample_rate * _UINT64_SPAN)
        # the scanner's loss-draw parameters, mirrored exactly (see
        # ZMapScanner._lost and the engine's fused fast-probe draw)
        self._threshold16 = int(loss_rate * 65536.0)
        self._threshold64 = int(loss_rate * _UINT64_SPAN)
        self._attempts = retry_attempts
        self._fault_plan = fault_plan
        self._prefixes: Dict[int, PrefixPriority] = {}
        #: address -> estimated ground-truth response-mask bits
        self._carry: Dict[int, int] = {}
        #: monotone count of plans built; drives the refresh stagger
        self._scan_index = 0
        #: day of the first plan ever built; separates the campaign-start
        #: input cohort from mid-campaign discoveries
        self._first_plan_day = -1
        #: /48 groups flagged for escalation on the next plan
        self._suspects: Set[int] = set()
        self._m_full = self._m_sampled = self._m_carried = self._m_repairs = None
        if metrics is not None:
            self._m_full = metrics.counter(
                "repro_sched_full_targets_total",
                "Targets probed at full rate (churned/new/degraded/refresh-due prefixes)",
            )
            self._m_sampled = metrics.counter(
                "repro_sched_sampled_targets_total",
                "Targets probed as confirmation samples of stable prefixes",
            )
            self._m_carried = metrics.counter(
                "repro_sched_carried_targets_total",
                "Targets whose scan result was replayed from the carry store",
            )
            self._m_repairs = metrics.counter(
                "repro_sched_divergence_repairs_total",
                "Stable prefixes whose confirmation sample contradicted the carried state",
            )

    @staticmethod
    def _signature(members: Sequence[int]) -> int:
        sig = 0
        for address in members:
            sig ^= mix64(address & _M64)
        return sig

    @staticmethod
    def _visible(bits: int) -> int:
        """The cleaned view of a response mask.

        Injection-only DNS "responses" are subtracted by the GFW filter
        before anything is published, so a change in injection status
        alone is not churn: it must update the carry store (replay
        parity feeds the 30-day filter) but must not reset quiet-age
        clocks, count as a flap, or escalate the /48.
        """
        visible = bits & (_RESPONDER_BITS & ~BIT_UDP53)
        if bits & BIT_UDP53 and not bits & BIT_INJECTED:
            visible |= BIT_UDP53
        return visible

    # ------------------------------------------------------------------
    # loss replay

    def _survivors(self, target: int, day: int) -> int:
        """Which of the five probes would survive loss on ``day``.

        Replays the scanner's deterministic draws: the fused 64-bit
        fast-protocol draw (16-bit slice per protocol), the per-protocol
        UDP/53 draw, retry re-draws, and correlated loss bursts.  Pure
        computation — no ground-truth access, no probe budget.
        """
        plan = self._fault_plan
        if plan is not None and plan.burst_lost(target, day):
            return 0
        base = (target & _M64) ^ (target >> 64)
        if self._threshold16:
            surviving = 0
            for attempt in range(self._attempts):
                draw = mix64(
                    base
                    ^ mix64(
                        (day << 8)
                        ^ self._seed
                        ^ _FAST_SALT
                        ^ ((attempt * RETRY_SALT) & _M64)
                    )
                )
                for index in range(4):
                    if ((draw >> (16 * index)) & 0xFFFF) >= self._threshold16:
                        surviving |= 1 << index
                if surviving == _FAST_MASK:
                    break
        else:
            surviving = _FAST_MASK
        if self._threshold64:
            for attempt in range(self._attempts):
                draw = mix64(
                    base
                    ^ mix64(
                        (day << 8)
                        ^ int(Protocol.UDP53)
                        ^ self._seed
                        ^ ((attempt * RETRY_SALT) & _M64)
                    )
                )
                if draw >= self._threshold64:
                    surviving |= BIT_UDP53
                    break
        else:
            surviving |= BIT_UDP53
        return surviving

    # ------------------------------------------------------------------
    # planning

    def plan(
        self,
        day: int,
        pool: Iterable[int],
        force_full: bool = False,
        must_probe: Optional[Set[int]] = None,
    ) -> ScanPlan:
        """Partition ``pool`` for scan day ``day``.

        ``force_full`` probes every prefix regardless of state — used
        for the final scan of a campaign so the last published hitlist
        carries zero divergence from a full-scan baseline.
        ``must_probe`` addresses are never carried regardless of state;
        the service passes addresses nearing the 30-day filter's
        eviction deadline so a late first response cannot be missed
        while carried and silently evicted.
        """
        if self._first_plan_day < 0:
            self._first_plan_day = day
        pool_set = pool if isinstance(pool, (set, frozenset)) else set(pool)
        groups: Dict[int, List[int]] = {}
        for address in pool_set:
            groups.setdefault(address >> 64, []).append(address)
        # prune state for prefixes/addresses that left the pool so the
        # checkpoint footprint tracks the live pool
        for prefix in [p for p in self._prefixes if p not in groups]:
            del self._prefixes[prefix]
        for address in [a for a in self._carry if a not in pool_set]:
            del self._carry[address]

        probe_targets: List[int] = []
        carried: List[int] = []
        probe_groups: List[Tuple[int, List[int]]] = []
        sampled: Set[int] = set()
        full_targets = 0
        sampled_targets = 0
        day_hash = mix64((day ^ self._seed ^ _SAMPLE_SALT) & _M64)
        scan_index = self._scan_index
        self._scan_index = scan_index + 1
        escalated = self._suspects
        self._suspects = set()
        for prefix in sorted(groups):
            members = sorted(groups[prefix])
            state = self._prefixes.get(prefix)
            # each prefix refreshes once every refresh_interval scans, on
            # a mix64-staggered phase so refreshes spread evenly instead
            # of arriving in the wave the prefixes stabilised in
            refresh_due = (
                scan_index + mix64((prefix ^ self._seed ^ _REFRESH_SALT) & _M64)
            ) % self.refresh_interval == 0
            stable = (
                not force_full
                and state is not None
                and state.last_probe_day >= 0
                and not state.degraded
                and state.flaps < MAX_FLAPS
                and state.unchanged_probes >= STABLE_AFTER + FLAP_PENALTY * state.flaps
                and not refresh_due
                and (prefix >> _GROUP_SHIFT) not in escalated
                # never-visible mid-campaign discoveries (trace routers,
                # injection artifacts) skip the quiet-age probation: a
                # duty cycle is only a risk for space that has actually
                # answered a probe.  The campaign-start cohort keeps it —
                # input hitlists are host-backed, and a host dark on day
                # one blooms within its flap period
                and (
                    (
                        not state.ever_visible
                        and state.first_probe_day > self._first_plan_day
                    )
                    or (
                        state.last_change_day >= 0
                        and day - state.last_change_day >= QUIET_AGE_DAYS
                    )
                )
                and (
                    must_probe is None
                    or all(address not in must_probe for address in members)
                )
                and len(members) == state.member_count
                and self._signature(members) == state.member_sig
                # only quiet prefixes are carried: hosts flap in
                # multi-day duty cycles that no amount of observed
                # stability can rule out, so a carried responder is a
                # standing divergence risk, while a carried silent
                # prefix can only ever miss a first response until its
                # next refresh.  The pool is overwhelmingly silent
                # (the paper's hitlists are ~5 % responsive), so this
                # is where the probe budget actually goes.  Injection-
                # only addresses count as quiet: the cleaned view
                # subtracts them either way
                and all(
                    self._carry.get(address, 0) in (0, _INJECTED_ONLY)
                    for address in members
                )
            )
            if stable and mix64((prefix ^ day_hash) & _M64) >= self._sample_threshold:
                state.scans_since_probe += 1
                carried.extend(members)
                continue
            probe_targets.extend(members)
            probe_groups.append((prefix, members))
            if stable:
                sampled.add(prefix)
                sampled_targets += len(members)
            else:
                full_targets += len(members)
        if self._m_full is not None:
            self._m_full.inc(full_targets)
            self._m_sampled.inc(sampled_targets)
            self._m_carried.inc(len(carried))
        return ScanPlan(
            day=day,
            pool_size=len(pool_set),
            forced_full=force_full,
            probe_targets=probe_targets,
            carried=carried,
            probe_groups=probe_groups,
            sampled=sampled,
            full_targets=full_targets,
            sampled_targets=sampled_targets,
            escalated=escalated,
        )

    def carried_scan(self, plan: ScanPlan) -> CarriedScan:
        """Replay the carried targets' responders for the plan's day.

        Each address's estimated response mask is filtered through the
        day's loss draws, so a carried prefix with unchanged ground
        truth merges bit-identically to a real probe of it.
        """
        fast: Tuple[Set[int], ...] = tuple(set() for _ in FAST_BITS)
        udp: Set[int] = set()
        day = plan.day
        carry = self._carry
        for address in plan.carried:
            bits = carry.get(address, 0)
            if not bits:
                continue
            live = bits & self._survivors(address, day)
            if not live:
                continue
            for index, (_, bit) in enumerate(FAST_BITS):
                if live & bit:
                    fast[index].add(address)
            if live & BIT_UDP53:
                udp.add(address)
        return CarriedScan(targets=len(plan.carried), fast=fast, udp_responders=udp)

    def carried_injected(self, plan: ScanPlan, udp_responders: Set[int]) -> Set[int]:
        """Carried UDP/53 responders whose stored responses were injected."""
        carry = self._carry
        return {
            address
            for address in plan.carried
            if address in udp_responders and carry.get(address, 0) & BIT_INJECTED
        }

    # ------------------------------------------------------------------
    # absorbing probe outcomes

    def absorb(
        self,
        plan: ScanPlan,
        results: Dict[Protocol, "ScanResult"],
        udp53: "Udp53Result",
        cleaning: "ScanCleaningResult",
    ) -> None:
        """Fold probed outcomes back into the priority + carry state.

        Change detection is loss-aware: observed bits are compared with
        the carry store's expectation *after* filtering both through the
        day's survival draws, so a lost probe is "no information", not
        churn.  Also re-attributes carried-forward injected responders
        inside ``cleaning`` — carried responders ride into the merge
        without response objects, so the GFW filter classified them
        clean; the carry store remembers which of them were injected.
        """
        day = plan.day
        carry = self._carry
        fast_lookup = [(results[protocol].responders, bit) for protocol, bit in FAST_BITS]
        udp_responders = udp53.responders
        injected = cleaning.injected_responders
        repairs = 0
        # pass 1: fold observations into the carry store and classify
        # each probed prefix; /48 rotation detection needs the whole
        # scan's transitions before any priority state is updated
        observations = []
        rotation_candidates: Dict[int, int] = {}
        for prefix, members in plan.probe_groups:
            raw_changed = False
            visible_changed = False
            was_visible = False
            now_visible = False
            hits = 0
            for address in members:
                observed = 0
                for responders, bit in fast_lookup:
                    if address in responders:
                        observed |= bit
                if address in udp_responders:
                    observed |= BIT_UDP53
                    if address in injected:
                        observed |= BIT_INJECTED
                survivors = self._survivors(address, day)
                estimate = carry.get(address, 0)
                expected = estimate & survivors
                if expected & BIT_UDP53 and estimate & BIT_INJECTED:
                    expected |= BIT_INJECTED
                if observed != expected:
                    raw_changed = True
                    if self._visible(observed) != self._visible(expected):
                        visible_changed = True
                if self._visible(estimate):
                    was_visible = True
                # protocols whose probe survived report ground truth;
                # lost probes keep the previous estimate
                if survivors & BIT_UDP53:
                    survivors |= BIT_INJECTED
                updated = (estimate & ~survivors) | (observed & survivors)
                if updated:
                    carry[address] = updated
                elif estimate:
                    del carry[address]
                # hit rates come from the loss-corrected estimate of the
                # *cleaned* view: unlucky loss cannot crater the EWMA,
                # and injection-only addresses are not responders (an
                # injection era ending is not mass host degradation)
                if self._visible(updated):
                    hits += 1
                    now_visible = True
            observations.append(
                (prefix, members, raw_changed, visible_changed, was_visible,
                 now_visible, hits)
            )
            if visible_changed and was_visible and not now_visible:
                group = prefix >> _ROTATION_SHIFT
                rotation_candidates[group] = rotation_candidates.get(group, 0) + 1
        # /48 groups where several prefixes went silent together: CPE
        # renumbering abandoned those addresses for good
        rotated = {
            group
            for group, count in rotation_candidates.items()
            if count >= ROTATION_MIN_PREFIXES
        }
        # pass 2: update priority state
        for (prefix, members, raw_changed, visible_changed, was_visible,
             now_visible, hits) in observations:
            state = self._prefixes.get(prefix)
            if state is None:
                state = self._prefixes[prefix] = PrefixPriority()
            first_probe = state.last_probe_day < 0
            if first_probe:
                state.first_probe_day = day
            # injection-status-only updates (raw change, visible mask
            # unchanged) refresh the carry store silently: the cleaned
            # view subtracts injected responders either way, so an
            # injection era starting or ending is not host churn and
            # must not de-stabilise thousands of quiet prefixes at once
            changed = first_probe or visible_changed
            if now_visible:
                state.ever_visible = True
            renumbered = (
                visible_changed
                and not now_visible
                and prefix >> _ROTATION_SHIFT in rotated
            )
            if visible_changed and not first_probe and not renumbered:
                state.flaps = min(state.flaps + 1, MAX_FLAPS)
                if (prefix >> _GROUP_SHIFT) not in plan.escalated:
                    # churn is spatially correlated (CPE rotation flips
                    # whole customer groups): re-probe the /48 next scan
                    self._suspects.add(prefix >> _GROUP_SHIFT)
            count = len(members)
            sig = self._signature(members)
            membership_changed = count != state.member_count or sig != state.member_sig
            if membership_changed:
                changed = True
                state.member_count = count
                state.member_sig = sig
            rate = hits / count if count else 0.0
            previous = state.ewma_hit_rate
            if membership_changed or previous < 0.0:
                # composition changed: the old EWMA is not a baseline
                state.degraded = False
                state.ewma_hit_rate = rate
            else:
                state.degraded = (
                    previous >= DEGRADE_FLOOR and rate < previous * DEGRADE_FACTOR
                )
                state.ewma_hit_rate = EWMA_ALPHA * rate + (1.0 - EWMA_ALPHA) * previous
            if changed:
                # only visible-mask churn restarts the quiet-age clock;
                # membership growth resets just the short streak, and
                # renumbering-abandoned prefixes backdate it (the old
                # addresses are gone for good, waiting out a duty cycle
                # proves nothing)
                if renumbered:
                    state.last_change_day = day - QUIET_AGE_DAYS
                elif (visible_changed or first_probe):
                    state.last_change_day = day
                state.unchanged_probes = 0
                if prefix in plan.sampled:
                    # confirmation sample contradicted the carry store:
                    # count the repair; zeroed unchanged_probes already
                    # forces full re-probes until the prefix re-stabilises
                    repairs += 1
            else:
                state.unchanged_probes += 1
            state.last_probe_day = day
            state.scans_since_probe = 0
        carried_injected = self.carried_injected(plan, udp_responders)
        if carried_injected:
            cleaning.clean_responders -= carried_injected
            cleaning.injected_responders |= carried_injected
        if self._m_repairs is not None and repairs:
            self._m_repairs.inc(repairs)

    # ------------------------------------------------------------------
    # checkpoints

    def state_dict(self) -> Dict[str, object]:
        """Checkpoint payload; sorted so bytes are deterministic."""
        return {
            "prefixes": [
                [
                    prefix,
                    state.last_probe_day,
                    state.first_probe_day,
                    state.last_change_day,
                    state.unchanged_probes,
                    state.scans_since_probe,
                    state.ewma_hit_rate,
                    int(state.degraded),
                    state.flaps,
                    state.member_count,
                    state.member_sig,
                    int(state.ever_visible),
                ]
                for prefix, state in sorted(self._prefixes.items())
            ],
            "carry": [[address, bits] for address, bits in sorted(self._carry.items())],
            "scan_index": self._scan_index,
            "first_plan_day": self._first_plan_day,
            "suspects": sorted(self._suspects),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self._scan_index = int(state.get("scan_index", 0))  # type: ignore[arg-type]
        self._first_plan_day = int(state.get("first_plan_day", -1))  # type: ignore[arg-type]
        self._suspects = {int(g) for g in state.get("suspects", ())}  # type: ignore[union-attr]
        self._prefixes = {}
        for row in state.get("prefixes", ()):  # type: ignore[union-attr]
            (
                prefix, last_probe, first_probe, last_change, unchanged,
                scans_since, ewma, degraded, flaps, count, sig, visible,
            ) = row
            self._prefixes[int(prefix)] = PrefixPriority(
                last_probe_day=int(last_probe),
                first_probe_day=int(first_probe),
                last_change_day=int(last_change),
                unchanged_probes=int(unchanged),
                scans_since_probe=int(scans_since),
                ewma_hit_rate=float(ewma),
                degraded=bool(degraded),
                flaps=int(flaps),
                member_count=int(count),
                member_sig=int(sig),
                ever_visible=bool(visible),
            )
        self._carry = {int(a): int(b) for a, b in state.get("carry", ())}  # type: ignore[union-attr]
