"""The IPv6 Hitlist service run over the four-year timeline.

Pipeline per scan (paper Fig. 1): collect source input → blocklist
filter → GFW filter (after its February 2022 deployment) → aliased
prefix detection → 30-day unresponsive filter → Yarrp traceroutes (fed
back as input) → ZMapv6 scans of five protocols.

The service records a :class:`ScanSnapshot` per scan (counts for the
published and the GFW-cleaned view, churn decomposition) and retains
full responder sets plus the aliased prefix list at the paper's yearly
snapshot days so Tables 1/2 and Figures 2-10 can be regenerated.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.gfw.filter import GfwFilter
from repro.hitlist.apd import AliasedPrefixDetection, DetectedAlias
from repro.hitlist.sources import FlakySource, InputSource, default_sources
from repro.net.prefix import IPv6Prefix
from repro.obs.clock import Clock, MonotonicClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.protocols import ALL_PROTOCOLS, Protocol
from repro.runtime.faults import FaultPlan, RetryPolicy
from repro.scan.blocklist import Blocklist
from repro.scan.loss import LossModel
from repro.scan.scheduler import (
    DEFAULT_REFRESH_INTERVAL,
    DEFAULT_SAMPLE_RATE,
    IncrementalScheduler,
)
from repro.scan.yarrp import YarrpTracer
from repro.scan.zmap import ZMapScanner
from repro.simnet.config import DAY_2021_12_01, SNAPSHOT_DAYS, ScenarioConfig
from repro.simnet.internet import SimInternet
from repro.vantage import VantageFleet, default_vantage_specs

#: Addresses within this many days of the 30-day filter's deadline are
#: force-probed under incremental scheduling (see _apply_30day_filter).
_LAST_CHANCE_DAYS = 4

#: The per-scan metrics block of a :class:`ScanSnapshot`: short key ->
#: registry counter whose per-scan delta it records.
SCAN_METRIC_COUNTERS: Dict[str, str] = {
    "probes_sent": "repro_probes_sent_total",
    "probe_hits": "repro_probe_hits_total",
    "probe_retries": "repro_probe_retries_total",
    "burst_suppressed": "repro_burst_suppressed_total",
    "rate_limited": "repro_rate_limited_total",
    "trace_hops": "repro_trace_hops_total",
    "apd_tested": "repro_apd_prefixes_tested_total",
    "gfw_injected": "repro_gfw_injected_detected_total",
    "gfw_dropped": "repro_gfw_dropped_total",
    "faults_absorbed": "repro_faults_absorbed_total",
    "excluded": "repro_excluded_total",
    "sched_full": "repro_sched_full_targets_total",
    "sched_sampled": "repro_sched_sampled_targets_total",
    "sched_carried": "repro_sched_carried_targets_total",
    "sched_repairs": "repro_sched_divergence_repairs_total",
}


class DegradedReason(str):
    """A structured degraded-scan marker that is still a plain string.

    :attr:`ScanSnapshot.degraded` is asserted on (and serialized) as
    tuples of strings, so structure is carried *in* the string instead
    of next to it.  Canonical forms:

    * ``vantage_outage`` — no vantage could probe; the scan stood down
      (the only vantage marker a fleet of one records);
    * ``source:<name>`` — input source ``<name>`` raised and was skipped;
    * ``vantage:<vid>:outage`` — fleet member ``<vid>`` sat out a
      scheduled outage while the survivors absorbed its shard;
    * ``vantage:<vid>:backoff`` — member ``<vid>`` was quarantined by the
      coordinator's retry/backoff after earlier failures.
    """

    __slots__ = ()

    @classmethod
    def fleet_standdown(cls) -> "DegradedReason":
        return cls("vantage_outage")

    @classmethod
    def source(cls, name: str) -> "DegradedReason":
        return cls(f"source:{name}")

    @classmethod
    def vantage(cls, vid: str, fault: str) -> "DegradedReason":
        return cls(f"vantage:{vid}:{fault}")

    @classmethod
    def parse(cls, text: str) -> "DegradedReason":
        """Re-wrap a serialized marker (checkpoint decode path)."""
        return cls(text)

    @property
    def kind(self) -> str:
        """``vantage_outage`` | ``source`` | ``vantage``."""
        if self == "vantage_outage":
            return "vantage_outage"
        return self.split(":", 1)[0]

    @property
    def vantage_id(self) -> Optional[str]:
        """The fleet member this marker names, if any."""
        parts = self.split(":")
        return parts[1] if parts[0] == "vantage" and len(parts) == 3 else None

    @property
    def detail(self) -> Optional[str]:
        """The source name or per-vantage fault kind, if any."""
        parts = self.split(":")
        if parts[0] == "source":
            return self.split(":", 1)[1]
        if parts[0] == "vantage" and len(parts) == 3:
            return parts[2]
        return None


def default_scan_days(final_day: int) -> List[int]:
    """Scan schedule: cadence degrades as runtime grows (Sec. 3.1).

    Daily scans initially (modelled at 2-day granularity), then every
    3, 5 and finally 7 days as the growing input stretches runs over
    multiple days.
    """
    days: List[int] = []
    day = 0
    while day <= final_day:
        days.append(day)
        if day < 365:
            day += 2
        elif day < 730:
            day += 3
        elif day < 1095:
            day += 5
        else:
            day += 7
    if days[-1] != final_day:
        days.append(final_day)
    return days


@dataclass(frozen=True)
class ServiceSettings:
    """Tunables of the service run."""

    qname: str = "www.google.com"
    unresponsive_days: int = 30
    gfw_filter_deploy_day: Optional[int] = None  # None = never deployed
    loss_rate: float = 0.03
    trace_sample_rate: float = 1.0
    #: probe budget per day for adaptive scheduling (Sec. 3.1: the growing
    #: input stretched scans from daily to multi-day runs).  Five probes
    #: per target per scan; None disables the runtime model.
    probes_per_day: Optional[int] = None
    apd_min_longer_addresses: int = 100
    apd_reconfirm_interval: int = 30
    #: days whose full responder sets are kept: the paper's Table 1
    #: snapshots plus December 2021 (the TGA seed set of Sec. 6).
    retain_days: Tuple[int, ...] = tuple(sorted(SNAPSHOT_DAYS + (DAY_2021_12_01,)))
    #: total tries per probe (1 = single-shot); extra attempts re-draw
    #: loss deterministically so transient loss does not look like churn.
    retry_attempts: int = 1
    #: simulated vantage points scanning as a fleet (1 = the paper's
    #: single TUM vantage; >1 shards targets across AS-diverse members
    #: with quorum reconciliation, see repro.vantage)
    vantages: int = 1
    #: quorum policy reconciling witness-target disagreements
    #: ("strict" | "majority" | "any")
    quorum: str = "majority"
    #: fraction of targets cross-checked by a multi-vantage witness panel
    vantage_overlap: float = 0.0625
    #: "full" probes the whole pool every scan; "incremental" routes the
    #: pool through repro.scan.scheduler, probing only churned/new/
    #: degraded/refresh-due prefixes plus confirmation samples and
    #: carrying stable prefixes forward
    scan_mode: str = "full"
    #: incremental mode: a stable prefix is fully re-probed at least
    #: every this many scans
    refresh_interval: int = DEFAULT_REFRESH_INTERVAL
    #: incremental mode: deterministic per-day fraction of stable
    #: prefixes probed as confirmation samples
    sample_rate: float = DEFAULT_SAMPLE_RATE


@dataclass
class ScanSnapshot:
    """Bookkeeping of one service scan."""

    day: int
    input_total: int
    scan_target_count: int
    aliased_prefix_count: int
    #: targets actually probed this scan; equals ``scan_target_count``
    #: in full mode, and shrinks to the full+sampled partition under
    #: incremental scheduling (-1 on snapshots from older checkpoints)
    probed_target_count: int = -1
    published_counts: Dict[Protocol, int] = field(default_factory=dict)
    cleaned_counts: Dict[Protocol, int] = field(default_factory=dict)
    published_total: int = 0
    cleaned_total: int = 0
    injected_count: int = 0
    churn_new: int = 0
    churn_recurring: int = 0
    churn_gone: int = 0
    excluded_now: int = 0
    udp53_hit_rate: float = 0.0
    #: faults absorbed during this scan, as :class:`DegradedReason`
    #: markers (see there for the canonical forms); empty for a clean
    #: scan
    degraded: Tuple[str, ...] = ()
    #: fleet reconciliation block (roster, re-shard count, quorum
    #: decisions, per-vantage disagreements); None for a fleet of one
    vantage: Optional[Dict[str, object]] = None
    #: per-scan observability block: deltas of the deterministic
    #: registry counters in :data:`SCAN_METRIC_COUNTERS`
    metrics: Dict[str, int] = field(default_factory=dict)

    @property
    def stood_down(self) -> bool:
        """No vantage could probe: the scan kept only input collection."""
        return DegradedReason.fleet_standdown() in self.degraded


class Pacer:
    """Where a campaign's scans fall (see :meth:`HitlistService.run`).

    The campaign loop scans ``next_day()`` until it is None, forces the
    ``is_final(day)`` scan full and hands every finished scan to
    ``advance()``.  A pacer is a dataclass whose fields are its
    checkpoint state; ``next_index`` counts the scans already run.
    """

    def state(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "Pacer":
        return cls(**{f.name: state[f.name] for f in fields(cls)})


@dataclass
class FixedSchedule(Pacer):
    """Replays a list of scan days; the last one is final."""

    scan_days: List[int]
    next_index: int = 0

    def __post_init__(self) -> None:
        self.scan_days = list(self.scan_days)

    def next_day(self) -> Optional[int]:
        days = self.scan_days
        return days[self.next_index] if self.next_index < len(days) else None

    def is_final(self, day: int) -> bool:
        return self.next_index + 1 == len(self.scan_days)

    def advance(self, snapshot: ScanSnapshot) -> None:
        self.next_index += 1


@dataclass
class SelfPaced(Pacer):
    """Starts each scan only once the previous one has finished.

    A scan's runtime is 5 probes per probed target at ``probes_per_day``,
    in whole days and never below ``base_interval`` (a stood-down scan
    probes nothing).  A scan is final, and forced full, when ``day +
    base_interval > until_day``.  The rule is conservative: a runtime
    that pushes the next scan past ``until_day`` leaves the campaign's
    real last scan unforced.
    """

    probes_per_day: Optional[int]
    base_interval: int
    start_day: int
    until_day: int
    #: the day the next scan starts (None = ``start_day``)
    due_day: Optional[int] = None
    next_index: int = 0

    def __post_init__(self) -> None:
        if self.probes_per_day is None:
            raise ValueError("self-paced scans require settings.probes_per_day, "
                             "which is unset")
        if self.probes_per_day < 1:
            raise ValueError(
                f"settings.probes_per_day must be >= 1, got {self.probes_per_day}")
        if self.base_interval < 1:
            # at 0, an empty pool's 0-day runtime would never advance the day
            raise ValueError(f"base_interval must be >= 1, got {self.base_interval}")
        if self.due_day is None:
            self.due_day = self.start_day

    def next_day(self) -> Optional[int]:
        return self.due_day if self.due_day <= self.until_day else None

    def is_final(self, day: int) -> bool:
        return day + self.base_interval > self.until_day

    def advance(self, snapshot: ScanSnapshot) -> None:
        runtime_days = -(-5 * snapshot.probed_target_count // self.probes_per_day)
        self.due_day += max(self.base_interval, runtime_days)
        self.next_index += 1


@dataclass
class RetainedScan:
    """Full data kept at the paper's snapshot days."""

    day: int
    responders: Dict[Protocol, FrozenSet[int]]
    injected: FrozenSet[int]
    aliased_prefixes: Tuple[DetectedAlias, ...]

    def cleaned_responders(self, protocol: Protocol) -> FrozenSet[int]:
        """Responders with GFW-forged DNS results removed.

        Injection only poisons UDP/53 results; a Chinese host genuinely
        answering ICMP stays responsive in the cleaned view (Sec. 4.2:
        "individual addresses should remain in the IPv6 Hitlist if
        responsive to other protocols").
        """
        responders = self.responders.get(protocol, frozenset())
        if protocol is Protocol.UDP53:
            return responders - self.injected
        return responders

    def cleaned_any(self) -> FrozenSet[int]:
        """Addresses responsive to at least one protocol, cleaned."""
        union: Set[int] = set()
        for protocol in ALL_PROTOCOLS:
            union |= self.cleaned_responders(protocol)
        return frozenset(union)


@dataclass
class HitlistHistory:
    """Everything the analysis layer consumes after a run."""

    snapshots: List[ScanSnapshot] = field(default_factory=list)
    retained: Dict[int, RetainedScan] = field(default_factory=dict)
    input_ever: Set[int] = field(default_factory=set)
    excluded: Set[int] = field(default_factory=set)
    per_source_counts: Dict[str, int] = field(default_factory=dict)
    ever_responsive: Dict[Protocol, Set[int]] = field(default_factory=dict)
    ever_responsive_any: Set[int] = field(default_factory=set)
    gfw: Optional[GfwFilter] = None
    apd: Optional[AliasedPrefixDetection] = None
    internet: Optional[SimInternet] = None
    #: the run's metrics registry (set by the service)
    metrics: Optional[MetricsRegistry] = None

    def retained_at(self, day: int) -> RetainedScan:
        """The retained scan closest to ``day``."""
        if not self.retained:
            raise ValueError("no retained scans")
        best = min(self.retained, key=lambda d: abs(d - day))
        return self.retained[best]

    @property
    def final(self) -> RetainedScan:
        """The last retained scan (the paper's 2022-04-07 state)."""
        return self.retained[max(self.retained)]


class HitlistService:
    """Runs the pipeline across a scan schedule."""

    def __init__(
        self,
        internet: SimInternet,
        config: ScenarioConfig,
        settings: Optional[ServiceSettings] = None,
        sources: Optional[Sequence[InputSource]] = None,
        blocklist: Optional[Blocklist] = None,
        fault_plan: Optional[FaultPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.internet = internet
        self.config = config
        self.settings = settings or ServiceSettings(
            gfw_filter_deploy_day=config.gfw_filter_deploy_day
        )
        self.blocklist = blocklist or Blocklist()
        self.fault_plan = fault_plan
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.spans = Tracer(self.clock, registry=self.metrics)
        self._init_service_metrics()
        retry = (
            RetryPolicy(attempts=self.settings.retry_attempts)
            if self.settings.retry_attempts > 1
            else None
        )
        if self.settings.vantages < 1:
            raise ValueError(
                f"settings.vantages must be >= 1, got {self.settings.vantages}"
            )
        #: the scan fleet; with ``vantages=1`` a fleet of one, which is
        #: the paper's single vantage (see repro.vantage.fleet)
        self.fleet = VantageFleet(
            internet,
            default_vantage_specs(
                internet, config.seed, self.settings.vantages
            ),
            seed=config.seed,
            loss_rate=self.settings.loss_rate,
            quorum=self.settings.quorum,
            overlap=self.settings.vantage_overlap,
            blocklist=self.blocklist,
            fault_plan=fault_plan,
            retry=retry,
            metrics=self.metrics,
            tracer=self.spans,
        )
        #: member 0's scanner: the paper's vantage
        self.engine = self.fleet.scanners[0]
        if self.settings.scan_mode not in ("full", "incremental"):
            raise ValueError(
                f"settings.scan_mode must be 'full' or 'incremental', "
                f"got {self.settings.scan_mode!r}"
            )
        #: the incremental churn-aware scheduler; None keeps the
        #: probe-everything path bit-identical to earlier releases
        self.scheduler: Optional[IncrementalScheduler] = None
        if self.settings.scan_mode == "incremental":
            # the coordinator's loss: campaign seed, unscoped plan
            self.scheduler = IncrementalScheduler(
                loss=LossModel(config.seed, self.settings.loss_rate,
                               self.settings.retry_attempts, fault_plan),
                refresh_interval=self.settings.refresh_interval,
                sample_rate=self.settings.sample_rate,
                metrics=self.metrics,
            )
        self.tracer = YarrpTracer(
            internet, blocklist=self.blocklist,
            sample_rate=self.settings.trace_sample_rate, seed=config.seed,
            fault_plan=fault_plan, metrics=self.metrics,
        )
        self.apd = AliasedPrefixDetection(
            ZMapScanner(internet, blocklist=self.blocklist, loss_rate=self.settings.loss_rate,
                        seed=config.seed ^ 0xA11A5,
                        fault_plan=fault_plan, retry=retry, metrics=self.metrics),
            min_longer_addresses=self.settings.apd_min_longer_addresses,
            reconfirm_interval=self.settings.apd_reconfirm_interval,
            metrics=self.metrics,
        )
        self.gfw_filter = GfwFilter(metrics=self.metrics)
        self.sources: List[InputSource] = list(
            sources if sources is not None else default_sources(internet, config)
        )
        if fault_plan is not None and fault_plan.source_outages:
            flaky = fault_plan.flaky_source_names
            self.sources = [
                FlakySource(source, fault_plan) if source.name in flaky else source
                for source in self.sources
            ]

        self.history = HitlistHistory(
            gfw=self.gfw_filter, apd=self.apd, internet=internet,
            metrics=self.metrics,
        )
        self.history.ever_responsive = {protocol: set() for protocol in ALL_PROTOCOLS}

        # live pipeline state
        self._scan_pool: Set[int] = set()
        self._pending_apd_input: Set[int] = set()
        self._slash64_members: Dict[int, List[int]] = {}
        self._first_seen: Dict[int, int] = {}
        self._last_responsive: Dict[int, int] = {}
        self._prev_responsive_any: Set[int] = set()
        self._gfw_purge_applied = False
        #: (day, responders, injected) of the last working scan, which
        #: retention and publication read instead of re-probing
        self._last_scan_full: Optional[
            Tuple[int, Dict[Protocol, FrozenSet[int]], FrozenSet[int]]
        ] = None
        #: per-source last successfully collected day; a failed source
        #: keeps its cursor so the missed window is retried next scan
        self._source_cursor: Dict[str, int] = {}
        #: (pacer, schedule) restored by resume; the next bare run() continues it
        self._resumed: Optional[Tuple[Pacer, Dict[str, object]]] = None

        # seed the accumulated input
        initial = internet.ground_truth.get("initial_input")
        self._ingest("initial_seed", initial, day=0)

    def _init_service_metrics(self) -> None:
        """Declare the service-level metric families."""
        metrics = self.metrics
        self._m_scans = metrics.counter(
            "repro_scans_total", "Pipeline scans run, by outcome.", ("outcome",))
        self._m_input = metrics.counter(
            "repro_input_addresses_total",
            "New candidate addresses ingested, by input source.", ("source",))
        self._m_excluded = metrics.counter(
            "repro_excluded_total",
            "Addresses dropped from the scan pool, by reason.", ("reason",))
        self._m_churn = metrics.counter(
            "repro_churn_total",
            "Responsive-set churn between consecutive scans, by kind.",
            ("kind",))
        self._m_faults = metrics.counter(
            "repro_faults_absorbed_total",
            "Faults absorbed without aborting the run, by component.",
            ("component",))
        self._m_gfw_detected = metrics.counter(
            "repro_gfw_injected_detected_total",
            "UDP/53 responders with forged answers, by filter era.", ("era",))
        self._m_gfw_dropped = metrics.counter(
            "repro_gfw_dropped_total",
            "Injected responders removed from the published view, by era.",
            ("era",))
        self._m_pool_size = metrics.gauge(
            "repro_scan_pool_size", "Current post-filter scan targets.")
        self._m_input_total = metrics.gauge(
            "repro_input_total", "Accumulated input addresses ever seen.")
        self._m_ckpt_write = metrics.histogram(
            "repro_checkpoint_write_seconds",
            "Wall-clock duration of checkpoint writes.", volatile=True)
        self._m_ckpt_read = metrics.histogram(
            "repro_checkpoint_read_seconds",
            "Wall-clock duration of checkpoint read + restore on resume.",
            volatile=True)

    # ------------------------------------------------------------------

    def _ingest(self, source_name: str, addresses: Iterable[int], day: int) -> Set[int]:
        """Add new candidates to the accumulated input and the scan pool."""
        history = self.history
        new: Set[int] = set()
        for address in addresses:
            if address in history.input_ever:
                continue
            history.input_ever.add(address)
            new.add(address)
            self._pending_apd_input.add(address)
            self._slash64_members.setdefault(address >> 64, []).append(address)
            if self.blocklist.is_blocked(address):
                continue
            if self.apd.is_aliased_address(address):
                continue
            self._scan_pool.add(address)
            self._first_seen[address] = day
        if new:
            history.per_source_counts[source_name] = (
                history.per_source_counts.get(source_name, 0) + len(new)
            )
            self._m_input.labels(source=source_name).inc(len(new))
        return new

    def _apply_30day_filter(self, day: int) -> Tuple[int, Optional[Set[int]]]:
        """Drop addresses unresponsive for more than the threshold.

        Days lost to scheduled vantage outages do not count towards the
        threshold: an address cannot prove responsiveness while no probe
        leaves the vantage, and excluding it for our own downtime would
        fabricate churn.  Only *fleet-wide* outage days count — while any
        member is live, orphaned shards re-home to the survivors and
        targets can still prove responsiveness.

        Returns the number of addresses dropped and, under incremental
        scheduling, the eviction watchlist collected by the same pass:
        surviving addresses close to the deadline, which the scheduler
        must not carry.  A first response blooming while carried would
        go unrecorded and the address would be evicted, a divergence the
        final full scan cannot repair (full-scan mode would have kept
        it).  The watchlist counts raw days and ignores scheduled-outage
        credits — that only widens it, never narrows it.
        """
        threshold = self.settings.unresponsive_days
        plan = self.fault_plan
        vantages = self.fleet.vantage_ids
        history = self.history
        watch: Optional[Set[int]] = None
        if self.scheduler is not None:
            watch = set()
            horizon = threshold - _LAST_CHANCE_DAYS
        to_remove = []
        for address in self._scan_pool:
            reference = self._last_responsive.get(
                address, self._first_seen.get(address, day)
            )
            elapsed = day - reference
            if plan is not None and elapsed > threshold:
                elapsed -= plan.fleet_outage_days_between(
                    reference, day, vantages
                )
            if elapsed > threshold:
                to_remove.append(address)
            elif watch is not None and day - reference >= horizon:
                watch.add(address)
        for address in to_remove:
            self._scan_pool.discard(address)
            self._first_seen.pop(address, None)
            self._last_responsive.pop(address, None)
            history.excluded.add(address)
        if to_remove:
            self._m_excluded.labels(reason="30day").inc(len(to_remove))
        return len(to_remove), watch

    def _apply_gfw_historical_purge(self) -> None:
        """The one-time removal of injection-only addresses (Sec. 4.2)."""
        purge = self.gfw_filter.historical_filter_set()
        self._scan_pool -= purge
        for address in purge:
            self._first_seen.pop(address, None)
            self._last_responsive.pop(address, None)
        self.history.excluded.update(purge)
        self._gfw_purge_applied = True
        if purge:
            self._m_excluded.labels(reason="gfw_purge").inc(len(purge))
            self._m_gfw_dropped.labels(era="post-filter").inc(len(purge))

    def _drop_newly_aliased(self, changed: Set[IPv6Prefix]) -> None:
        """Remove scan-pool members now covered by detected aliases.

        ``changed`` holds the prefixes whose alias state flipped this
        round.  Only addresses under *newly* aliased prefixes need
        dropping: ingestion already rejects alias-covered addresses and
        every earlier round dropped its own, so the pool never contains
        an address under a previously detected alias.
        """
        # group newly aliased networks by prefix length: one set lookup
        # per (address, length) instead of a walk over every new alias
        drops: Dict[int, Set[int]] = {}
        for prefix in changed:
            if self.apd.is_aliased(prefix):
                shift = 128 - prefix.length
                drops.setdefault(shift, set()).add(prefix.value >> shift)
        if not drops:
            return
        if len(drops) == 1:
            shift, networks = next(iter(drops.items()))
            self._scan_pool = {
                address for address in self._scan_pool
                if (address >> shift) not in networks
            }
        else:
            items = sorted(drops.items())
            self._scan_pool = {
                address for address in self._scan_pool
                if not any(
                    (address >> shift) in networks for shift, networks in items
                )
            }

    # ------------------------------------------------------------------

    def run_scan(self, day: int, prev_day: int, force_full: bool = False) -> ScanSnapshot:
        """Execute one full pipeline iteration.

        The iteration is fault-tolerant: a raising source is skipped
        (its window is retried next scan) and a vantage outage degrades
        the scan to input collection only.  Absorbed faults are recorded
        in :attr:`ScanSnapshot.degraded` instead of aborting the run.

        Each stage runs inside a tracing span, and the snapshot carries
        a per-scan :attr:`ScanSnapshot.metrics` block: the deltas of the
        deterministic registry counters caused by this scan.

        ``force_full`` makes an incremental-mode scan probe the whole
        pool regardless of scheduler state (used for the final scan of
        a campaign so the published list carries zero divergence); it
        is a no-op in full mode.
        """
        metrics = self.metrics
        before = {
            key: metrics.counter_total(name)
            for key, name in SCAN_METRIC_COUNTERS.items()
        }
        with self.spans.span("scan", day=day):
            snapshot = self._run_scan_stages(day, prev_day, force_full)
        for component in snapshot.degraded:
            self._m_faults.labels(component=component).inc()
        self._m_scans.labels(
            outcome="degraded" if snapshot.degraded else "ok").inc()
        self._m_pool_size.set(len(self._scan_pool))
        self._m_input_total.set(len(self.history.input_ever))
        snapshot.metrics = {
            key: int(metrics.counter_total(name) - before[key])
            for key, name in SCAN_METRIC_COUNTERS.items()
        }
        return snapshot

    def _run_scan_stages(
        self, day: int, prev_day: int, force_full: bool = False
    ) -> ScanSnapshot:
        """The pipeline stages of one scan (see :meth:`run_scan`)."""
        settings = self.settings
        history = self.history
        degraded: List[str] = []

        # 1. input collection — a failing source must not kill a
        # multi-year run; its cursor stays put so the next scan retries
        # the whole missed window
        with self.spans.span("source-pull"):
            for source in self.sources:
                start = self._source_cursor.get(source.name, prev_day)
                try:
                    collected = source.collect(start, day)
                except Exception:
                    self._source_cursor[source.name] = start
                    degraded.append(DegradedReason.source(source.name))
                    continue
                self._ingest(source.name, collected, day)
                self._source_cursor[source.name] = day

        # 1b. vantage outages.  The fleet's roster — taken exactly once
        # per scan day, because failure counts and quarantine deadlines
        # advance here — degrades the scan (rather than standing it
        # down) while any member is live: orphaned shards re-home to the
        # survivors inside the fleet's rendezvous ranking.  Only when
        # *nothing* can be probed do APD, the unresponsiveness filter,
        # scans and traceroutes all stand down; collected input stays
        # queued for the next working scan, and churn bookkeeping
        # freezes (an outage is not churn).
        roster = self.fleet.roster(day)
        for vid in roster.down:
            degraded.append(DegradedReason.vantage(vid, "outage"))
        for vid in roster.backoff:
            degraded.append(DegradedReason.vantage(vid, "backoff"))
        if roster.all_down:
            degraded.append(DegradedReason.fleet_standdown())
            snapshot = ScanSnapshot(
                day=day,
                input_total=len(history.input_ever),
                scan_target_count=len(self._scan_pool),
                probed_target_count=0,
                aliased_prefix_count=self.apd.aliased_count,
                published_counts={protocol: 0 for protocol in ALL_PROTOCOLS},
                cleaned_counts={protocol: 0 for protocol in ALL_PROTOCOLS},
                degraded=tuple(degraded),
                vantage=self.fleet.standdown_block(roster),
            )
            history.snapshots.append(snapshot)
            return snapshot

        # 2. aliased prefix detection (incremental).  Everything ingested
        # since the last detection round — sources, the initial seed, and
        # the previous scan's traceroute hops — is candidate input.
        with self.spans.span("apd"):
            rib = self.internet.routing.snapshot_at(day)
            pending = self._pending_apd_input
            self._pending_apd_input = set()
            changed = self.apd.run(day, pending, self._slash64_members, rib)
            if changed:
                self._drop_newly_aliased(changed)

        # 3. GFW historical purge once the filter deploys
        with self.spans.span("gfw-filter"):
            deploy = settings.gfw_filter_deploy_day
            gfw_active = deploy is not None and day >= deploy
            if gfw_active and not self._gfw_purge_applied:
                self._apply_gfw_historical_purge()

        # 4. 30-day unresponsive filter
        with self.spans.span("hygiene"):
            excluded_now, must_probe = self._apply_30day_filter(day)

        # 5. scans — the fleet's shard/probe/reconcile cycle, which a
        # fleet of one hands straight to its scanner.  Under incremental
        # scheduling the scheduler partitions the pool
        # fleet-globally (before sharding): only the probe set enters
        # the scanner's chunk loop, carried responders are folded in
        # after its last chunk, and absorb() folds probed outcomes back
        # into the priority state and re-attributes carried-injected
        # responders that the GFW filter saw without response objects.
        scheduler = self.scheduler
        with self.spans.span("probe"):
            sched_plan = None
            carried = None
            if scheduler is not None:
                sched_plan = scheduler.plan(
                    day,
                    self._scan_pool,
                    force_full,
                    must_probe=must_probe,
                )
                targets = sched_plan.probe_targets
                carried = scheduler.carried_scan(sched_plan)
            else:
                targets = list(self._scan_pool)
            results, udp53, fleet_report = self.fleet.scan(
                targets, day, settings.qname, roster, carried=carried
            )
            cleaning = self.gfw_filter.clean_scan(udp53)
            if sched_plan is not None:
                scheduler.absorb(sched_plan, results, udp53, cleaning)

            other_responders: Set[int] = set()
            for protocol in (Protocol.ICMP, Protocol.TCP80, Protocol.TCP443,
                             Protocol.UDP443):
                other_responders |= results[protocol].responders
            self.gfw_filter.note_other_protocol_responders(other_responders)

        era = "post-filter" if gfw_active else "pre-filter"
        if cleaning.injected_responders:
            self._m_gfw_detected.labels(era=era).inc(
                len(cleaning.injected_responders)
            )
            if gfw_active:
                # the active filter removes them from the published view
                self._m_gfw_dropped.labels(era=era).inc(
                    len(cleaning.injected_responders)
                )

        # the raw, cleaned and published views of the scan.  The
        # cleaned UDP/53 view is the responders minus ``injected`` (the
        # set cleaning.clean_responders holds once absorb() has
        # re-attributed carried-injected responders); the active filter
        # publishes the cleaned view
        responders: Dict[Protocol, FrozenSet[int]] = {
            Protocol.ICMP: results[Protocol.ICMP].responders,
            Protocol.TCP80: results[Protocol.TCP80].responders,
            Protocol.TCP443: results[Protocol.TCP443].responders,
            Protocol.UDP443: results[Protocol.UDP443].responders,
            Protocol.UDP53: frozenset(udp53.responders),
        }
        injected = frozenset(cleaning.injected_responders)
        cleaned = dict(responders)
        cleaned[Protocol.UDP53] = responders[Protocol.UDP53] - injected
        published = cleaned if gfw_active else responders

        published_counts = {
            protocol: len(published[protocol]) for protocol in ALL_PROTOCOLS
        }
        cleaned_counts = {
            protocol: len(cleaned[protocol]) for protocol in ALL_PROTOCOLS
        }
        published_any: Set[int] = set().union(
            *(published[protocol] for protocol in ALL_PROTOCOLS)
        )
        cleaned_any: Set[int] = set().union(
            *(cleaned[protocol] for protocol in ALL_PROTOCOLS)
        )

        # 6. responsiveness bookkeeping
        for address in published_any:
            self._last_responsive[address] = day

        # churn (cleaned view), relative to the previous scan
        prev = self._prev_responsive_any
        ever = history.ever_responsive_any
        appeared = cleaned_any - prev
        churn_new = len(appeared - ever)
        churn_recurring = len(appeared & ever)
        churn_gone = len(prev - cleaned_any)
        self._m_churn.labels(kind="new").inc(churn_new)
        self._m_churn.labels(kind="recurring").inc(churn_recurring)
        self._m_churn.labels(kind="gone").inc(churn_gone)
        self._prev_responsive_any = cleaned_any
        ever |= cleaned_any
        for protocol in ALL_PROTOCOLS:
            history.ever_responsive[protocol] |= cleaned[protocol]

        # 7. the service's own traceroutes feed the next scan's input.
        # Incremental scheduling still traces the whole pool: probe
        # reduction targets the ZMap probe budget, while hop discovery
        # must keep feeding input identically to full mode or the two
        # modes' pools would drift apart
        with self.spans.span("trace"):
            trace_pool = targets if scheduler is None else list(self._scan_pool)
            trace_result = self.tracer.trace_targets(trace_pool, day)
            self._ingest("yarrp", trace_result.hops, day)

        # stash full sets so a retention request for this day reuses the
        # actual scan instead of re-probing a mutated pool
        self._last_scan_full = (day, responders, injected)

        snapshot = ScanSnapshot(
            day=day,
            input_total=len(history.input_ever),
            # scan_target_count stays the full post-filter pool (what
            # the scan *covers*); probed_target_count is what actually
            # went through the probe path this day
            scan_target_count=(
                len(targets) if sched_plan is None else sched_plan.pool_size
            ),
            probed_target_count=len(targets),
            aliased_prefix_count=self.apd.aliased_count,
            published_counts=published_counts,
            cleaned_counts=cleaned_counts,
            published_total=len(published_any),
            cleaned_total=len(cleaned_any),
            injected_count=len(injected),
            churn_new=churn_new,
            churn_recurring=churn_recurring,
            churn_gone=churn_gone,
            excluded_now=excluded_now,
            udp53_hit_rate=udp53.hit_rate,
            degraded=tuple(degraded),
            vantage=None if fleet_report is None else fleet_report.to_json(),
        )
        history.snapshots.append(snapshot)
        return snapshot

    def bootstrap(self, day: int) -> None:
        """Warm up the aliased prefix detection before the first scan.

        The real service started with the 2018 paper's aliased prefix
        list; a cold start here would let single-probe losses pollute the
        first published snapshot.  Two detection rounds over the seeded
        input (attempt-varied probes) bring the miss rate to ~0.02 %.
        """
        with self.spans.span("bootstrap", day=day):
            pending = self._pending_apd_input
            self._pending_apd_input = set()
            rib = self.internet.routing.snapshot_at(day)
            changed = self.apd.run(day, pending, self._slash64_members, rib)
            changed |= self.apd.retest_followups(day)
            self._drop_newly_aliased(changed)

    def run(
        self,
        scan_days: Optional[Sequence[int]] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        publish_dir: Optional[str] = None,
        pacer: Optional[Pacer] = None,
    ) -> HitlistHistory:
        """Run a campaign and return the recorded history.

        Scan days come from ``pacer``, or from a :class:`FixedSchedule`
        over ``scan_days`` (default :func:`default_scan_days`).  The
        final scan probes the whole pool, so the published list carries
        no carried-forward divergence.  ``checkpoint_every=N`` with
        ``checkpoint_path`` (a file, or a directory of per-day files)
        writes the full live state after every N scans and at the end;
        :meth:`resume` then finishes bit-identically.  ``publish_dir``
        commits each working scan to a
        :class:`repro.publish.store.SnapshotStore`; commits are
        content-addressed, so resumed runs re-commit as no-ops.  On a
        service from :meth:`resume`, ``run()`` without ``scan_days`` or
        ``pacer`` continues the stored campaign without a bootstrap.
        """
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if scan_days is not None:
            if pacer is not None:
                raise ValueError("pass scan_days or pacer, not both")
            pacer = FixedSchedule(scan_days)
        if pacer is None and self._resumed is not None:
            pacer, schedule = self._resumed
            self._resumed = None
            prev_day = int(schedule["prev_day"])
            retain_pending = [int(day) for day in schedule["retain_pending"]]
            checkpoint_every = checkpoint_every or schedule.get("checkpoint_every")
            checkpoint_path = checkpoint_path or schedule.get("checkpoint_path")
            publish_dir = publish_dir or schedule.get("publish_dir")
        else:
            if pacer is None:
                pacer = FixedSchedule(default_scan_days(self.config.final_day))
            prev_day = -1
            retain_pending = sorted(self.settings.retain_days)
            first_day = pacer.next_day()
            if first_day is not None:
                self.bootstrap(first_day)
        publish_store = None
        if publish_dir is not None:
            # imported lazily: repro.publish builds on hitlist.export,
            # which itself imports from this module
            from repro.publish.store import SnapshotStore

            publish_store = SnapshotStore(publish_dir, metrics=self.metrics)
        day = pacer.next_day()
        while day is not None:
            snapshot = self.run_scan(
                day, prev_day, force_full=pacer.is_final(day)
            )
            if not snapshot.stood_down:
                # retention needs real scan data; during an outage the
                # pending day waits for the next working scan
                while retain_pending and day >= retain_pending[0]:
                    self._retain(day)
                    retain_pending.pop(0)
                if publish_store is not None:
                    with self.spans.span("publish", day=day):
                        self._commit_publication(publish_store, day)
            prev_day = day
            pacer.advance(snapshot)
            day = pacer.next_day()
            if (
                checkpoint_every
                and checkpoint_path is not None
                and (pacer.next_index % checkpoint_every == 0 or day is None)
            ):
                from repro.runtime.checkpoint import checkpoint_service

                start = self.clock.now()
                checkpoint_service(self, checkpoint_path, schedule=dict(
                    pacer.state(),
                    prev_day=prev_day,
                    retain_pending=list(retain_pending),
                    checkpoint_every=checkpoint_every,
                    checkpoint_path=checkpoint_path,
                    publish_dir=publish_dir,
                ))
                self._m_ckpt_write.observe(self.clock.now() - start)
        stash = self._last_scan_full
        if stash is not None and stash[0] not in self.history.retained:
            self._retain(stash[0])
        return self.history

    def _commit_publication(self, store, day: int):
        """Commit the just-finished scan's publication set to ``store``.

        The artifacts mirror what :func:`repro.hitlist.export.publish`
        writes (cleaned union, per-protocol lists, aliased prefixes)
        plus an origin-AS map from the day's RIB snapshot.  The commit
        is a byte-identical no-op when the snapshot already exists, so
        resumed runs republish safely.
        """
        from repro.publish.store import publication_artifacts

        stash = self._last_scan_full
        if stash is None or stash[0] != day:
            return None
        _day, responders, injected = stash
        rib = self.internet.routing.snapshot_at(day)
        artifacts = publication_artifacts(
            responders, injected, self.apd.aliased_prefixes,
            origin_as=rib.origin_as,
        )
        return store.commit(day, artifacts)

    @classmethod
    def resume(
        cls,
        path: str,
        internet: Optional[SimInternet] = None,
        sources: Optional[Sequence[InputSource]] = None,
        blocklist: Optional[Blocklist] = None,
    ) -> "HitlistService":
        """Restore a service from a checkpoint file (or directory).

        The scenario config, settings, fault plan and full pipeline
        state come from the checkpoint; the world is rebuilt
        deterministically from the config unless ``internet`` is given.
        Calling :meth:`run` with no arguments then finishes the stored
        schedule, bit-identical to the uninterrupted run.  Custom
        ``sources`` or a non-empty ``blocklist`` are not serialized and
        must be passed again here.
        """
        from repro.runtime.checkpoint import resume_service

        return resume_service(
            path, internet=internet, sources=sources, blocklist=blocklist
        )

    def _retain(self, day: int) -> None:
        """Store full responder sets for the scan that just ran."""
        stashed = self._last_scan_full
        if stashed is None or stashed[0] != day:
            raise ValueError(f"no scan data to retain for day {day}")
        _day, responders, injected = stashed
        self.history.retained[day] = RetainedScan(
            day=day,
            responders=dict(responders),
            injected=injected,
            aliased_prefixes=self.apd.aliased_prefixes,
        )

    # ------------------------------------------------------------------

    @property
    def scan_pool(self) -> FrozenSet[int]:
        """The current post-filter scan targets."""
        return frozenset(self._scan_pool)
