"""Aliased (fully responsive) prefix analyses — Sec. 5 of the paper.

Covers Figure 5 (size distribution over the years), Figure 6 (per-AS
aliased address-space fraction), Table 2 (per-protocol responsiveness of
one random address per prefix), the Sec. 5.1 fingerprint and Too Big
Trick surveys, and the Sec. 5.2 hosted-domain analysis.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.asn.rib import RibSnapshot
from repro.hitlist.apd import DetectedAlias
from repro.net.prefix import IPv6Prefix
from repro.net.random_addr import pseudo_random_address
from repro.net.trie import PrefixTrie
from repro.protocols import ALL_PROTOCOLS, Protocol
from repro.scan.fingerprint import FingerprintClass, TcpFingerprinter
from repro.scan.tbt import TbtOutcome, TbtProber
from repro.scan.zmap import ZMapScanner
from repro.simnet.dnszone import TOP_LIST_NAMES, DnsZone
from repro.simnet.internet import SimInternet


def _prefixes(aliases: Iterable) -> List[IPv6Prefix]:
    return [getattr(alias, "prefix", alias) for alias in aliases]


def origin_of(prefix: IPv6Prefix, rib: RibSnapshot) -> Optional[int]:
    """Origin AS of a detected prefix (LPM on its network address)."""
    return rib.origin_as(prefix.value)


# ---------------------------------------------------------------------------
# Figure 5


def alias_size_histogram(
    aliases: Iterable,
    rib: Optional[RibSnapshot] = None,
    exclude_asns: Iterable[int] = (),
) -> Counter:
    """Prefix-length histogram of detected aliased prefixes.

    ``exclude_asns`` reproduces the paper's 2022 plot, which excludes
    Trafficforce (61.6 % of all prefixes after its event).
    """
    excluded = set(exclude_asns)
    histogram: Counter = Counter()
    for prefix in _prefixes(aliases):
        if excluded:
            if rib is None:
                raise ValueError("exclude_asns requires a rib")
            if origin_of(prefix, rib) in excluded:
                continue
        histogram[prefix.length] += 1
    return histogram


# ---------------------------------------------------------------------------
# Figure 6


@dataclass(frozen=True)
class AliasedSpaceRow:
    """One AS's aliased address space vs. announced space."""

    asn: int
    aliased_addresses: int
    announced_addresses: int

    @property
    def log2_aliased(self) -> int:
        """The x-axis of Figure 6 (power-of-two bin)."""
        return self.aliased_addresses.bit_length() - 1

    @property
    def fraction(self) -> float:
        """The y-axis of Figure 6."""
        if not self.announced_addresses:
            return 0.0
        return self.aliased_addresses / self.announced_addresses


def aliased_fraction_by_as(
    aliases: Iterable, rib: RibSnapshot
) -> List[AliasedSpaceRow]:
    """Per-AS aliased space vs. announced space (nested prefixes deduped)."""
    by_asn: Dict[int, List[IPv6Prefix]] = defaultdict(list)
    for prefix in _prefixes(aliases):
        asn = origin_of(prefix, rib)
        if asn is not None:
            by_asn[asn].append(prefix)
    rows = []
    for asn, prefixes in by_asn.items():
        prefixes.sort()  # address order; shorter sorts before its subnets
        total = 0
        last_covering: Optional[IPv6Prefix] = None
        for prefix in prefixes:
            if last_covering is not None and last_covering.contains_prefix(prefix):
                continue  # nested inside an already counted prefix
            total += prefix.num_addresses
            last_covering = prefix
        rows.append(
            AliasedSpaceRow(
                asn=asn,
                aliased_addresses=total,
                announced_addresses=rib.announced_address_count(asn),
            )
        )
    rows.sort(key=lambda row: -row.aliased_addresses)
    return rows


# ---------------------------------------------------------------------------
# Table 2


def aliased_prefix_protocols(
    internet: SimInternet,
    aliases: Iterable,
    day: int,
    exclude_asns: Iterable[int] = (212144,),
    qname: str = "www.google.com",
) -> Dict[Protocol, Tuple[int, int]]:
    """Table 2: (prefix count, AS count) responsive per protocol.

    One pseudo-random address per prefix is probed — "to reduce impact"
    as the paper puts it — using the standard modules; GFW-injected DNS
    responses are discarded.
    """
    rib = internet.routing.snapshot_at(day)
    excluded = set(exclude_asns)
    targets: Dict[int, Tuple[IPv6Prefix, Optional[int]]] = {}
    for prefix in _prefixes(aliases):
        asn = origin_of(prefix, rib)
        if asn in excluded:
            continue
        targets[pseudo_random_address(prefix, nonce=day)] = (prefix, asn)
    scanner = ZMapScanner(internet, loss_rate=0.0)
    address_list = list(targets)
    results, udp53 = scanner.scan_all_protocols(address_list, day, qname)
    from repro.gfw.filter import GfwFilter

    cleaning = GfwFilter().clean_scan(udp53)
    outcome: Dict[Protocol, Tuple[int, int]] = {}
    for protocol in ALL_PROTOCOLS:
        if protocol is Protocol.UDP53:
            responders = cleaning.clean_responders
        else:
            responders = set(results[protocol].responders)
        asns = {
            targets[address][1] for address in responders if targets[address][1]
        }
        outcome[protocol] = (len(responders), len(asns))
    return outcome


# ---------------------------------------------------------------------------
# Sec. 5.1 surveys


@dataclass
class FingerprintSurvey:
    """Aggregate fingerprint evidence across aliased prefixes."""

    total: int = 0
    counts: Dict[FingerprintClass, int] = field(default_factory=dict)

    @property
    def fingerprintable(self) -> int:
        return self.total - self.counts.get(FingerprintClass.NO_TCP, 0)

    @property
    def uniform_share(self) -> float:
        """Share of fingerprintable prefixes with fully uniform features."""
        if not self.fingerprintable:
            return 0.0
        return self.counts.get(FingerprintClass.UNIFORM, 0) / self.fingerprintable


def fingerprint_survey(
    internet: SimInternet, aliases: Iterable, day: int
) -> FingerprintSurvey:
    """Fingerprint every aliased prefix (Sec. 5.1's TCP analysis)."""
    fingerprinter = TcpFingerprinter(internet)
    survey = FingerprintSurvey()
    for prefix in _prefixes(aliases):
        verdict = fingerprinter.fingerprint_prefix(prefix, day).verdict
        survey.total += 1
        survey.counts[verdict] = survey.counts.get(verdict, 0) + 1
    return survey


@dataclass
class TbtSurvey:
    """Aggregate Too Big Trick outcomes."""

    total: int = 0
    counts: Dict[TbtOutcome, int] = field(default_factory=dict)
    partial_by_asn: Counter = field(default_factory=Counter)

    @property
    def measurable(self) -> int:
        return self.total - self.counts.get(TbtOutcome.NOT_APPLICABLE, 0)

    def share(self, outcome: TbtOutcome) -> float:
        """Share of measurable prefixes with the given outcome."""
        if not self.measurable:
            return 0.0
        return self.counts.get(outcome, 0) / self.measurable


def tbt_survey(
    internet: SimInternet,
    aliases: Iterable,
    day: int,
    rib: Optional[RibSnapshot] = None,
) -> TbtSurvey:
    """Run the Too Big Trick against every aliased prefix."""
    prober = TbtProber(internet)
    survey = TbtSurvey()
    rib = rib or internet.routing.snapshot_at(day)
    internet.reset_pmtu_caches()
    for prefix in _prefixes(aliases):
        result = prober.probe_prefix(prefix, day)
        survey.total += 1
        survey.counts[result.outcome] = survey.counts.get(result.outcome, 0) + 1
        if result.outcome is TbtOutcome.PARTIAL_SHARED:
            asn = origin_of(prefix, rib)
            if asn is not None:
                survey.partial_by_asn[asn] += 1
    internet.reset_pmtu_caches()
    return survey


# ---------------------------------------------------------------------------
# Sec. 5.2: domains hosted in aliased prefixes


@dataclass
class DomainAliasReport:
    """Domains resolving into fully responsive prefixes."""

    domains_total: int = 0
    domains_in_aliased: int = 0
    prefixes_hit: Set[IPv6Prefix] = field(default_factory=set)
    asns_hit: Set[int] = field(default_factory=set)
    domains_per_prefix: Counter = field(default_factory=Counter)
    top_list_hits: Dict[str, int] = field(default_factory=dict)
    top_list_rank_hits: Dict[str, Dict[int, int]] = field(default_factory=dict)
    aliased_addresses_seen: Set[int] = field(default_factory=set)

    def prefixes_of_asn(self, asn: int, rib: RibSnapshot) -> List[IPv6Prefix]:
        """Hit prefixes originated by one AS (e.g. Cloudflare)."""
        return [p for p in self.prefixes_hit if rib.origin_as(p.value) == asn]

    def mean_domains_per_prefix(self, prefixes: Iterable[IPv6Prefix]) -> float:
        counts = [self.domains_per_prefix.get(p, 0) for p in prefixes]
        return sum(counts) / len(counts) if counts else 0.0

    def max_domains_in_prefix(self) -> int:
        if not self.domains_per_prefix:
            return 0
        return max(self.domains_per_prefix.values())


def domains_in_aliased_prefixes(
    zone: DnsZone,
    aliases: Iterable,
    rib: RibSnapshot,
    rank_thresholds: Sequence[int] = (1_000, 100_000),
) -> DomainAliasReport:
    """Join the DNS zone against detected aliased prefixes (Sec. 5.2)."""
    prefixes = _prefixes(aliases)
    trie: PrefixTrie[IPv6Prefix] = PrefixTrie()
    for prefix in prefixes:
        trie[prefix] = prefix
    report = DomainAliasReport()
    report.top_list_hits = {name: 0 for name in TOP_LIST_NAMES}
    report.top_list_rank_hits = {
        name: {threshold: 0 for threshold in rank_thresholds} for name in TOP_LIST_NAMES
    }
    for domain in zone.domains():
        report.domains_total += 1
        hit_prefixes = set()
        for address in domain.addresses:
            prefix = trie.longest_value(address)
            if prefix is not None:
                hit_prefixes.add(prefix)
                report.aliased_addresses_seen.add(address)
        if not hit_prefixes:
            continue
        report.domains_in_aliased += 1
        for prefix in hit_prefixes:
            report.prefixes_hit.add(prefix)
            report.domains_per_prefix[prefix] += 1
            asn = rib.origin_as(prefix.value)
            if asn is not None:
                report.asns_hit.add(asn)
        for top_list in TOP_LIST_NAMES:
            rank = domain.rank(top_list)
            if rank is None:
                continue
            report.top_list_hits[top_list] += 1
            for threshold in rank_thresholds:
                if rank <= threshold:
                    report.top_list_rank_hits[top_list][threshold] += 1
    return report
