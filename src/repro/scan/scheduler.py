"""Incremental, churn-aware scan scheduling.

Every scan day used to walk the full target pool even though the
longitudinal design of the source paper makes most of that work
redundant: stable prefixes barely move between scans.  The
:class:`IncrementalScheduler` exploits this.  It maintains per-/64
priority state (EWMA hit rate, days since last change, new/degraded
flags) and partitions the pool each scan day into three classes:

* **full-probe** prefixes — churned, new-from-sources, recently
  degraded, or due for a periodic refresh; probed end to end through
  the scan engine,
* **confirmation-sample** prefixes — stable prefixes drawn by a
  deterministic ``mix64``-seeded lottery at a configurable rate; also
  probed, and any contradiction with the carried state counts as a
  divergence repair and demotes the prefix back to full probing,
* **carried-forward** prefixes — replayed from the carry store and
  folded into the scan's results after its last chunk, so snapshots,
  metrics, and checkpoint bytes stay deterministic across reruns and
  resumes.

The scheduling unit is the /64 prefix: a prefix is wholly probed or
wholly carried, which makes the tiling property (probed and carried
partitions are disjoint and cover the pool exactly) true by
construction.

Carrying a result forward does NOT mean replaying yesterday's
responder set verbatim.  The carry store keeps an estimated
*ground-truth response mask* per address (which protocols the host
answers, plus a GFW-injection flag), and replay re-applies the
scanner's per-day loss draws — pure SplitMix64 functions of (address,
protocol, day, seed) that need no probe to evaluate.  For a prefix
whose ground truth has not changed, the replayed responders are
bit-identical to what a real probe would have returned, including the
day's loss flicker.  The same trick makes change detection
flicker-immune: a probed prefix counts as *changed* only when its
observed bits differ from the loss-filtered expectation, never because
a probe happened to be lost.  All state rides in checkpoints via
:meth:`IncrementalScheduler.state_dict`.

What a scan costs the scheduler follows what can change, not the pool
size.  ``absorb`` walks only addresses that answered a probe this scan
or hold a carry entry: for every other probed address the observed
bits, the estimate and the update are all 0, and the pool is
overwhelmingly silent.  Loss replay draws for all replayed targets in
one lane pass of a :class:`~repro.scan.loss.LossModel`, the model the
scanner's chunks and APD waves draw through.  ``plan`` rebuilds
the /64 groups only for prefixes whose membership changed since the
previous plan, keeps each prefix's refresh phase and member signature,
and tests only the day-dependent conditions (refresh phase, /48
escalation, ``must_probe``, lottery) against the day from which the
state-only carry conditions hold, which ``absorb`` recomputes for every
prefix it touches.  None of that is serialized: a restored scheduler
rebuilds it on its first plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro._util import mix64
from repro.protocols import Protocol
from repro.scan.loss import Lanes, LossModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gfw.filter import ScanCleaningResult
    from repro.obs.metrics import MetricsRegistry
    from repro.scan.zmap import ScanResult, Udp53Result

_M64 = 0xFFFFFFFFFFFFFFFF
_UINT64_SPAN = float(1 << 64)
#: salt separating the confirmation-sample lottery from every other
#: SplitMix64 stream in the simulation
_SAMPLE_SALT = 0x5C4ED5C4ED
#: salt for the per-prefix refresh phase (staggers periodic refreshes so
#: a /48 whose prefixes stabilised together does not refresh in a wave)
_REFRESH_SALT = 0x9EF9E54
#: escalation radius for detected churn: prefixes sharing a /48 with a
#: changed prefix are re-probed next scan (CPE rotation renumbers whole
#: customer groups at once, so churn is spatially correlated)
_GROUP_SHIFT = 16
#: rotation-detection radius: ISP CPE pools are /40-ish, so one
#: renumbering wave lands across the pool's /48s but inside one /40
_ROTATION_SHIFT = 24

#: carry-store bits, one per protocol
BIT_ICMP = 0x01
BIT_TCP80 = 0x02
BIT_TCP443 = 0x04
BIT_UDP443 = 0x08
BIT_UDP53 = 0x10
#: the address's UDP/53 responses carried injection evidence
BIT_INJECTED = 0x20
_RESPONDER_BITS = 0x1F
#: the fast-protocol nibble of a replayed survivor byte
_FAST_MASK = 0x0F
#: an address whose only "response" is a forged GFW injection: quiet in
#: the cleaned view (the filter subtracts it), but its replay must keep
#: flowing or the 30-day filter would age it out earlier than full mode
_INJECTED_ONLY = BIT_UDP53 | BIT_INJECTED
#: carry values a carried prefix's members may hold
_QUIET = (0, _INJECTED_ONLY)
#: absorb's observation of a probed prefix none of whose members
#: answered or held a carry entry: (raw_changed, visible_changed,
#: was_visible, now_visible, hits, quiet)
_SILENT = (False, False, False, False, 0, True)
#: carry-from days: the state-only carry conditions hold on every day /
#: on no day
_ALWAYS = -(1 << 62)
_NEVER = 1 << 62

#: fast-path protocols paired with their carry bit, in the order the
#: engine's fused loss draw slices them
FAST_BITS: Tuple[Tuple[Protocol, int], ...] = (
    (Protocol.ICMP, BIT_ICMP),
    (Protocol.TCP80, BIT_TCP80),
    (Protocol.TCP443, BIT_TCP443),
    (Protocol.UDP443, BIT_UDP443),
)

#: a stable prefix is fully re-probed at least every this many scans
DEFAULT_REFRESH_INTERVAL = 10
DEFAULT_SAMPLE_RATE = 0.03125
#: consecutive unchanged probes before a prefix counts as stable
STABLE_AFTER = 2
#: each observed response-mask flap lengthens the unchanged streak a
#: prefix must rebuild before it is carried again; hosts flap in
#: multi-day epochs, so one flap is strong evidence of more to come
FLAP_PENALTY = 6
#: prefixes that flapped this many times are never carried again —
#: their hosts have duty cycles, not stable responsiveness
MAX_FLAPS = 4
#: this many prefixes of one /48 going silent in the same scan is CPE
#: renumbering, not host churn: the abandoned addresses never answer
#: again, so they skip the quiet-age probation entirely
ROTATION_MIN_PREFIXES = 3
#: a prefix is carried only once this many days have passed since its
#: last observed change.  Host duty cycles run up to ~4 weeks, so a
#: quiet spell shorter than this is indistinguishable from a flappy
#: host's dark epoch; older silence is near-certainly a dead address
QUIET_AGE_DAYS = 30
#: EWMA smoothing factor for per-prefix hit rates
EWMA_ALPHA = 0.25
#: a probe whose hit rate falls below this fraction of the EWMA marks
#: the prefix degraded (probed fully until it stabilises again)
DEGRADE_FACTOR = 0.5
#: EWMAs below this floor are noise, not a baseline to degrade from;
#: without it a dead prefix would oscillate into full probing forever
DEGRADE_FLOOR = 0.05


@dataclass(slots=True)
class PrefixPriority:
    """Churn/responsiveness state for one /64 prefix."""

    last_probe_day: int = -1
    #: day this prefix was first probed; prefixes present since the
    #: campaign's first scan came from input hitlists (historically
    #: responsive somewhere, so host-backed and possibly duty-cycled)
    #: and never qualify for the never-visible fast-track
    first_probe_day: int = -1
    last_change_day: int = -1
    unchanged_probes: int = 0
    #: consecutive scans this prefix has been carried since its last probe
    scans_since_probe: int = 0
    #: EWMA of the per-probe hit rate (loss-corrected: computed from the
    #: ground-truth estimate, not raw observations); -1.0 until the
    #: first probe
    ewma_hit_rate: float = -1.0
    degraded: bool = False
    #: response-mask changes observed after the first probe (capped at
    #: :data:`MAX_FLAPS`); membership churn does not count
    flaps: int = 0
    member_count: int = 0
    #: xor-fold of ``mix64`` over the member addresses — detects
    #: membership churn without storing the members
    member_sig: int = 0
    #: whether any member was ever a cleaned-view responder; prefixes
    #: that never were (trace-discovered routers, injection-only
    #: addresses) skip the quiet-age probation — duty-cycle flapping is
    #: only a risk for space that has actually answered a probe
    ever_visible: bool = False


@dataclass
class ScanPlan:
    """One scan day's partition of the pool."""

    day: int
    pool_size: int
    forced_full: bool
    #: probe set (full + confirmation samples), globally sorted
    probe_targets: List[int]
    #: carried-forward targets, globally sorted
    carried: List[int]
    #: (prefix, sorted members) for every probed prefix
    probe_groups: List[Tuple[int, List[int]]]
    #: prefixes probed as confirmation samples
    sampled: Set[int]
    full_targets: int = 0
    sampled_targets: int = 0
    #: /48 groups escalated to full probing by churn detected last scan
    escalated: Set[int] = field(default_factory=set)


@dataclass
class CarriedScan:
    """Carried-forward responders, shaped for the engine's carried fold."""

    targets: int
    #: responder sets in ``FAST_BITS`` protocol order
    fast: Tuple[Set[int], ...]
    udp_responders: Set[int]


class IncrementalScheduler:
    """Partition the scan pool into probe / confirmation / carried sets.

    Priorities are fleet-global: the scheduler runs in the coordinator
    before sharding, so vantage members see only the probe set and
    shard it exactly as before.  ``loss`` is the coordinator's loss
    model (campaign seed, unscoped plan: member 0's in a solo fleet);
    its seed also drives the lottery and the refresh phases.  Fleet
    members draw loss from per-vantage seeds and scoped plans, so
    multi-vantage incremental runs trade a little extra divergence for
    the same probe savings (the gate's bit-exactness claim is
    single-vantage).
    """

    def __init__(
        self,
        loss: Optional[LossModel] = None,
        refresh_interval: int = DEFAULT_REFRESH_INTERVAL,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        if refresh_interval < 1:
            raise ValueError(f"refresh_interval must be >= 1, got {refresh_interval}")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be within [0, 1], got {sample_rate}")
        #: the loss the replay re-applies to carried estimates
        self.loss = loss if loss is not None else LossModel()
        self._seed = self.loss.seed
        self.refresh_interval = refresh_interval
        self.sample_rate = sample_rate
        self._sample_threshold = int(sample_rate * _UINT64_SPAN)
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
        # derived state, rebuilt by the first plan after a restore and
        # never serialized: the pool the groups were built from, its
        # /64 groups, and per prefix (refresh phase, member signature,
        # carry-from day) — see _regroup and _carry_from
        self._pool: Optional[Set[int]] = None
        self._groups: Dict[int, List[int]] = {}
        self._derived: Dict[int, Tuple[int, int, int]] = {}
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

    def _replay(self, targets: Sequence[int], day: int) -> List[int]:
        """Which of the five probes to each target survive loss on ``day``.

        Replays the scanner's deterministic draws in one lane pass of
        the scheduler's loss model: the fused fast-protocol nibble
        (``_FAST_MASK``), the UDP/53 draw at ``BIT_UDP53`` and loss
        bursts (0).  A probe survives when any attempt does, so this is
        the scanner's early-exit retry loop bit for bit.
        Pure computation — no ground-truth access, no probe budget.
        """
        if not targets:
            return []
        loss = self.loss.on(day)
        lanes = Lanes(targets)
        fast = int.from_bytes(loss.fast(lanes).merged(), "little")
        udp = int.from_bytes(loss.draw(lanes, Protocol.UDP53).merged(), "little")
        survivors = list((fast | udp * BIT_UDP53).to_bytes(len(targets), "little"))
        lost = loss.burst_lost
        if lost is not None:
            for index, target in enumerate(targets):
                if lost(target):
                    survivors[index] = 0
        return survivors

    # ------------------------------------------------------------------
    # derived per-prefix state (never serialized)

    def _regroup(self, pool: Set[int]) -> Dict[int, List[int]]:
        """The pool's /64 groups, members sorted, in prefix order.

        Built with one sort on the first plan (and after a restore);
        later plans rebuild only the prefixes that gained or lost a
        member since the previous plan's pool, and drop their derived
        entries.  Group lists are replaced, never mutated, because
        earlier plans hand them out in ``probe_groups``.
        """
        previous = self._pool
        self._pool = set(pool)
        if previous is None:
            groups: Dict[int, List[int]] = {}
            for address in sorted(pool):
                members = groups.get(address >> 64)
                if members is None:
                    groups[address >> 64] = [address]
                else:
                    members.append(address)
            self._groups = groups
            self._derived = {}
            return groups
        removed = previous - pool
        fresh: Dict[int, List[int]] = {}
        for address in pool - previous:
            fresh.setdefault(address >> 64, []).append(address)
        if not removed and not fresh:
            return self._groups
        groups = self._groups
        derived = self._derived
        dirty = set(fresh)
        dirty.update(address >> 64 for address in removed)
        grown = False
        for prefix in dirty:
            derived.pop(prefix, None)
            members = [a for a in groups.get(prefix, ()) if a not in removed]
            members.extend(fresh.get(prefix, ()))
            if not members:
                del groups[prefix]
                continue
            members.sort()
            grown = grown or prefix not in groups
            groups[prefix] = members
        if grown:
            groups = self._groups = {prefix: groups[prefix] for prefix in sorted(groups)}
        return groups

    def _phase(self, prefix: int) -> int:
        """The prefix's refresh phase: refreshed when ``(scan_index +
        phase) % refresh_interval == 0``, staggered by ``mix64``."""
        return mix64((prefix ^ self._seed ^ _REFRESH_SALT) & _M64) % self.refresh_interval

    def _carry_from(
        self,
        state: Optional[PrefixPriority],
        members: Sequence[int],
        sig: int,
        quiet: bool,
    ) -> int:
        """First day from which the prefix's state-only carry conditions hold.

        Everything ``plan`` tests that changes only when ``absorb``
        updates the state or carry store, or when membership changes:
        streak, flaps, degradation, membership signature, quiet carry
        entries, and the quiet-age probation (or the never-visible
        fast-track).  ``quiet`` is whether every member's carry entry
        is 0 or injection-only.  :data:`_NEVER` when they cannot hold.
        """
        if (
            state is None
            or not quiet
            or state.last_probe_day < 0
            or state.degraded
            or state.flaps >= MAX_FLAPS
            or state.unchanged_probes < STABLE_AFTER + FLAP_PENALTY * state.flaps
            or len(members) != state.member_count
            or sig != state.member_sig
        ):
            return _NEVER
        # never-visible mid-campaign discoveries (trace routers,
        # injection artifacts) skip the quiet-age probation: a duty
        # cycle is only a risk for space that has actually answered a
        # probe.  The campaign-start cohort keeps it — input hitlists
        # are host-backed, and a host dark on day one blooms within its
        # flap period
        if not state.ever_visible and state.first_probe_day > self._first_plan_day:
            return _ALWAYS
        if state.last_change_day >= 0:
            return state.last_change_day + QUIET_AGE_DAYS
        return _NEVER

    def _derive(self, prefix: int, members: List[int]) -> Tuple[int, int, int]:
        """(phase, member signature, carry-from day) of one group."""
        sig = self._signature(members)
        carry = self._carry
        # only quiet prefixes are carried: hosts flap in multi-day duty
        # cycles that no amount of observed stability can rule out, so
        # a carried responder is a standing divergence risk, while a
        # carried silent prefix can only ever miss a first response
        # until its next refresh.  The pool is overwhelmingly silent
        # (the paper's hitlists are ~5 % responsive), so this is where
        # the probe budget actually goes.  Injection-only addresses
        # count as quiet: the cleaned view subtracts them either way
        quiet = all(carry.get(address, 0) in _QUIET for address in members)
        return (
            self._phase(prefix),
            sig,
            self._carry_from(self._prefixes.get(prefix), members, sig, quiet),
        )

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

        Per prefix, only the day-dependent conditions are evaluated
        here (refresh phase, /48 escalation, ``must_probe``, lottery);
        the rest is the derived carry-from day that ``absorb`` keeps.
        """
        if self._first_plan_day < 0:
            self._first_plan_day = day
        pool_set = pool if isinstance(pool, (set, frozenset)) else set(pool)
        groups = self._regroup(pool_set)
        # prune state for prefixes/addresses that left the pool so the
        # checkpoint footprint tracks the live pool
        prefixes = self._prefixes
        for prefix in prefixes.keys() - groups.keys():
            del prefixes[prefix]
        carry = self._carry
        for address in carry.keys() - pool_set:
            del carry[address]

        probe_targets: List[int] = []
        carried: List[int] = []
        probe_groups: List[Tuple[int, List[int]]] = []
        sampled: Set[int] = set()
        full_targets = 0
        sampled_targets = 0
        day_hash = mix64((day ^ self._seed ^ _SAMPLE_SALT) & _M64)
        threshold = self._sample_threshold
        scan_index = self._scan_index
        self._scan_index = scan_index + 1
        # each prefix refreshes once every refresh_interval scans, on a
        # mix64-staggered phase so refreshes spread evenly instead of
        # arriving in the wave the prefixes stabilised in
        due = -scan_index % self.refresh_interval
        escalated = self._suspects
        self._suspects = set()
        derived = self._derived
        for prefix, members in groups.items():
            stable = False
            if not force_full:
                entry = derived.get(prefix)
                if entry is None:
                    entry = derived[prefix] = self._derive(prefix, members)
                phase, _sig, carry_from = entry
                stable = (
                    carry_from <= day
                    and phase != due
                    and (prefix >> _GROUP_SHIFT) not in escalated
                    and (must_probe is None or must_probe.isdisjoint(members))
                )
                if stable and mix64((prefix ^ day_hash) & _M64) >= threshold:
                    prefixes[prefix].scans_since_probe += 1
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
        carry = self._carry
        replayed = [address for address in plan.carried if carry.get(address, 0)]
        for address, survivors in zip(replayed, self._replay(replayed, plan.day)):
            live = carry[address] & survivors
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
            for address in udp_responders.intersection(plan.carried)
            if carry.get(address, 0) & BIT_INJECTED
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
        inside ``cleaning`` — carried responders join the scan's results
        without response objects, so the GFW filter classified them
        clean; the carry store remembers which of them were injected.

        Only addresses that answered a probe this scan or hold a carry
        entry are walked: for any other probed address the observed
        bits, the estimate, the expectation and the update are all 0,
        so it changes nothing but its prefix's hit count (by 0).
        """
        day = plan.day
        carry = self._carry
        fast_lookup = [(results[protocol].responders, bit) for protocol, bit in FAST_BITS]
        udp_responders = udp53.responders
        injected = cleaning.injected_responders
        repairs = 0
        active = set(udp_responders).union(*(responders for responders, _ in fast_lookup))
        active.update(carry)
        touched: List[Tuple[int, Set[int]]] = []
        addresses: List[int] = []
        for prefix, members in plan.probe_groups:
            hit = active.intersection(members)
            if hit:
                touched.append((prefix, hit))
                addresses.extend(hit)
        survivors_of = iter(self._replay(addresses, day))
        visible = self._visible
        # pass 1: fold observations into the carry store and classify
        # each probed prefix; /48 rotation detection needs the whole
        # scan's transitions before any priority state is updated
        observations: Dict[int, Tuple[bool, bool, bool, bool, int, bool]] = {}
        rotation_candidates: Dict[int, int] = {}
        for prefix, hit in touched:
            raw_changed = False
            visible_changed = False
            was_visible = False
            now_visible = False
            quiet = True
            hits = 0
            for address in hit:
                observed = 0
                for responders, bit in fast_lookup:
                    if address in responders:
                        observed |= bit
                if address in udp_responders:
                    observed |= BIT_UDP53
                    if address in injected:
                        observed |= BIT_INJECTED
                survivors = next(survivors_of)
                estimate = carry.get(address, 0)
                expected = estimate & survivors
                if expected & BIT_UDP53 and estimate & BIT_INJECTED:
                    expected |= BIT_INJECTED
                if observed != expected:
                    raw_changed = True
                    if visible(observed) != visible(expected):
                        visible_changed = True
                if visible(estimate):
                    was_visible = True
                # protocols whose probe survived report ground truth;
                # lost probes keep the previous estimate
                if survivors & BIT_UDP53:
                    survivors |= BIT_INJECTED
                updated = (estimate & ~survivors) | (observed & survivors)
                if updated:
                    carry[address] = updated
                    if updated != _INJECTED_ONLY:
                        quiet = False
                elif estimate:
                    del carry[address]
                # hit rates come from the loss-corrected estimate of the
                # *cleaned* view: unlucky loss cannot crater the EWMA,
                # and injection-only addresses are not responders (an
                # injection era ending is not mass host degradation)
                if visible(updated):
                    hits += 1
                    now_visible = True
            observations[prefix] = (
                raw_changed, visible_changed, was_visible, now_visible, hits, quiet
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
        prefixes = self._prefixes
        groups = self._groups
        derived = self._derived
        for prefix, members in plan.probe_groups:
            (raw_changed, visible_changed, was_visible, now_visible, hits,
             quiet) = observations.get(prefix, _SILENT)
            state = prefixes.get(prefix)
            if state is None:
                state = prefixes[prefix] = PrefixPriority()
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
            # the group's derived entry describes exactly these members
            # only while they are still the current group
            current = groups.get(prefix) is members
            entry = derived.get(prefix) if current else None
            count = len(members)
            sig = self._signature(members) if entry is None else entry[1]
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
            if current:
                derived[prefix] = (
                    self._phase(prefix) if entry is None else entry[0],
                    sig,
                    self._carry_from(state, members, sig, quiet),
                )
            else:
                derived.pop(prefix, None)
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
        self._pool = None
        self._groups = {}
        self._derived = {}
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
