"""The probe oracle: every scanner question is answered here.

:class:`SimInternet` owns the ground truth (hosts, fully responsive
regions, GFW, DNS zone, router topology) and answers probes
deterministically as a function of (address, protocol, day).  Packet loss
is *not* modelled here — the scanner layer injects loss so the oracle
stays a pure function of time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro._util import mix64
from repro.asn.registry import AsRegistry
from repro.asn.rib import RoutingHistory
from repro.net.eui64 import OuiRegistry
from repro.net.trie import PrefixTrie
from repro.protocols import (
    DnsAnswer,
    DnsResponse,
    DnsStatus,
    Protocol,
    RecordType,
    TcpFingerprint,
)
from repro.simnet.aliases import FullyResponsiveRegion
from repro.simnet.dnszone import DnsZone
from repro.simnet.gfwsim import GreatFirewall
from repro.simnet.hosts import DnsBehavior, HostRecord
from repro.simnet.routers import RouterTopology

_IPV6_MIN_MTU = 1280
_DEFAULT_MTU = 1500

#: cache-miss sentinel (``None`` is a valid cached value)
_MISSING = object()


@dataclass(frozen=True)
class EchoReply:
    """An ICMP echo reply as seen by the prober."""

    responder: int
    size: int
    fragmented: bool


@dataclass
class ControlNsQuery:
    """One query that arrived at our control-domain name server."""

    qname: str
    source: int


@dataclass
class GroundTruthNotes:
    """Builder-produced bookkeeping for evaluation and examples.

    Not visible to any detector; used by benches to compare measured
    results against the ground truth (e.g. true responsive population).
    """

    labels: Dict[str, Set[int]] = field(default_factory=dict)
    data: Dict[str, object] = field(default_factory=dict)

    def add(self, label: str, addresses: Iterable[int]) -> None:
        """Record a labelled ground-truth address set."""
        self.labels.setdefault(label, set()).update(addresses)

    def get(self, label: str) -> Set[int]:
        """A labelled set (empty when unknown)."""
        return self.labels.get(label, set())


class SimInternet:
    """Deterministic ground-truth oracle for all probe types."""

    def __init__(
        self,
        registry: AsRegistry,
        routing: RoutingHistory,
        hosts: Dict[int, HostRecord],
        regions: Iterable[FullyResponsiveRegion],
        gfw: GreatFirewall,
        zone: DnsZone,
        topology: RouterTopology,
        oui_registry: OuiRegistry,
        control_domain: str = "ipv6-research-control.example",
        control_aaaa: int = 0x20010DB8_0000_0000_0000_0000_0000_0053,
        fingerprint_table: Optional[Dict[int, TcpFingerprint]] = None,
        seed: int = 0,
    ) -> None:
        self.registry = registry
        self.routing = routing
        self.hosts = hosts
        self.gfw = gfw
        self.zone = zone
        self.topology = topology
        self.oui_registry = oui_registry
        self.control_domain = control_domain.lower()
        self.control_aaaa = control_aaaa
        self.ground_truth = GroundTruthNotes()
        self._seed = seed
        self._fingerprints = fingerprint_table or {}

        self._region_trie: PrefixTrie[FullyResponsiveRegion] = PrefixTrie()
        self._regions: List[FullyResponsiveRegion] = []
        self._long_region_slash64s: Set[int] = set()
        for region in regions:
            self.add_region(region)

        # /64-keyed cache of region lookups (valid only where no region is
        # more specific than /64); dramatically cuts trie walks because scan
        # inputs revisit the same /64s for years.
        self._region_cache: Dict[int, Optional[FullyResponsiveRegion]] = {}

        # PMTU caches keyed by FullyResponsiveRegion.pmtu_cache_key or, for
        # plain hosts, ("host", address).  Mutated by Packet Too Big
        # messages — the only stateful part of the oracle.
        self._pmtu_caches: Dict[tuple, int] = {}

        self.control_ns_log: List[ControlNsQuery] = []

        # per-day cache of currently ping-responsive CPE addresses.
        # Validity markers live *inside* the dict (mutated in place, never
        # rebound) so vantage views — shallow copies — share one cache
        # instead of each view recomputing or clearing it per day.
        self._cpe_cache_state: Dict[str, object] = {
            "day": None, "addresses": set(),
        }

        # /64-keyed origin-AS cache, valid per routing snapshot (announced
        # prefixes are never longer than /64, so the key is sound).
        self._origin_cache: Dict[int, Optional[int]] = {}
        self._origin_cache_state: Dict[str, object] = {"snapshot": None}

        # traceroute memos (see trace_hops), pure functions of the world
        # and never invalidated: per (target /48, origin AS) a
        # [marker, last-hop devices, *route hops] entry, whose marker lets
        # one trace_hops call expand each route once; the last-hop device
        # tuples, interned (a world has thousands of routes but about a
        # hundred distinct tuples); and each CPE device's (rotation epoch,
        # address) for its latest epoch.
        self._trace_routes: Dict[int, list] = {}
        self._trace_devices: Dict[tuple, tuple] = {}
        self._cpe_addresses: Dict[Tuple[int, int], Tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # topology / bookkeeping

    def add_region(self, region: FullyResponsiveRegion) -> None:
        """Register one fully responsive region."""
        self._region_trie[region.prefix] = region
        self._regions.append(region)
        if region.prefix.length > 64:
            self._long_region_slash64s.add(region.prefix.value >> 64)

    @property
    def regions(self) -> Tuple[FullyResponsiveRegion, ...]:
        """All ground-truth fully responsive regions."""
        return tuple(self._regions)

    def vantage_view(self, inside_gfw: bool) -> "SimInternet":
        """The same ground truth as seen from another vantage point.

        The view is a shallow copy sharing hosts, regions, routing,
        topology and every pure cache — only the path-dependent pieces
        differ: the Great Firewall boundary is re-anchored to the new
        vantage (an inside-GFW vantage sees injection towards *foreign*
        destinations and none towards Chinese ones), and the control-NS
        query log is private so per-vantage DNS verification traffic
        stays attributable.  Probe answers remain pure functions of
        (address, protocol, day); fleet scan order is deterministic, so
        shared caches never make results order-dependent.
        """
        import copy

        from repro.asn.topology import GfwBoundary

        view = copy.copy(self)
        view.gfw = self.gfw.with_boundary(
            GfwBoundary(
                inside_asns=self.gfw.boundary.inside_asns,
                vantage_inside=inside_gfw,
            )
        )
        view.control_ns_log = []
        return view

    def origin_as(self, address: int, day: int) -> Optional[int]:
        """Origin AS for an address per the routing table of ``day``."""
        snapshot = self.routing.snapshot_at(day)
        if snapshot is not self._origin_cache_state["snapshot"]:
            self._origin_cache.clear()
            self._origin_cache_state["snapshot"] = snapshot
        slash64 = address >> 64
        try:
            return self._origin_cache[slash64]
        except KeyError:
            origin = snapshot.origin_as(address)
            self._origin_cache[slash64] = origin
            return origin

    def region_of(self, address: int, day: int) -> Optional[FullyResponsiveRegion]:
        """The active fully responsive region covering ``address``, if any."""
        slash64 = address >> 64
        if slash64 in self._long_region_slash64s:
            region = self._region_trie.longest_value(address)
        else:
            try:
                region = self._region_cache[slash64]
            except KeyError:
                region = self._region_trie.longest_value(address)
                self._region_cache[slash64] = region
        if region is not None and region.active(day):
            return region
        return None

    # ------------------------------------------------------------------
    # probing

    def _responsive_cpe(self, day: int) -> Set[int]:
        """Current addresses of ping-answering CPE devices (cached per day)."""
        state = self._cpe_cache_state
        if state["day"] != day:
            current: Set[int] = set()
            for fleet in self.topology.fleets:
                if fleet.responsive_share > 0.0:
                    current.update(fleet.responsive_addresses(day))
            state["addresses"] = current
            state["day"] = day
        return state["addresses"]

    def responds(self, address: int, protocol: Protocol, day: int) -> bool:
        """Would a probe of ``protocol`` towards ``address`` be answered?

        Note: for UDP/53 this reports *target* responsiveness; GFW
        injection is a property of the DNS probe path and only surfaces
        through :meth:`dns_probe`.
        """
        region = self.region_of(address, day)
        if region is not None and region.protocols & protocol:
            return True
        host = self.hosts.get(address)
        if host is not None:
            return host.responds(address, protocol, day, self._seed)
        if protocol is Protocol.ICMP and address in self._responsive_cpe(day):
            return True
        return False

    def response_mask(self, address: int, day: int) -> int:
        """Responsive-protocol bitmask with a single ground-truth lookup.

        Covers the four non-DNS protocols plus the target side of UDP/53
        (injection excluded); the scanner's hot loop uses this instead of
        five separate :meth:`responds` calls.
        """
        mask = 0
        region = self.region_of(address, day)
        if region is not None:
            mask |= region.protocols
        host = self.hosts.get(address)
        if host is not None and host.is_up(address, day, self._seed):
            mask |= host.protocols
        if not mask & Protocol.ICMP and address in self._responsive_cpe(day):
            mask |= Protocol.ICMP
        return mask

    def probe_batch_arrays(
        self,
        targets: Sequence[int],
        day: int,
        qname: Optional[str] = None,
    ) -> Tuple[bytearray, List[Optional[int]], List[Optional[DnsBehavior]]]:
        """Fused ground-truth pass for a chunk of scan targets.

        Returns ``(masks, origin_asns, dns_behaviors)`` columns parallel
        to ``targets``: the response mask per target as a bytearray
        (masks fit a byte: the five probe protocols span bits 0-4), the
        origin AS, and the behavior a genuine UDP/53 answer would follow
        (``None`` when the target runs no DNS service).  Equivalent to
        calling :meth:`response_mask`, :meth:`origin_as` and the
        region/host resolution behind :meth:`dns_probe` separately per
        target, but each region, host and routing lookup happens exactly
        once.

        ``qname`` is accepted for call-site parity; the behavior column
        is qname-independent (response synthesis — including GFW
        injection — is the scan engine's business).
        """
        snapshot = self.routing.snapshot_at(day)
        if snapshot is not self._origin_cache_state["snapshot"]:
            self._origin_cache.clear()
            self._origin_cache_state["snapshot"] = snapshot
        origin_cache = self._origin_cache
        snapshot_origin = snapshot.origin_as
        region_cache = self._region_cache
        long_slash64s = self._long_region_slash64s
        longest_value = self._region_trie.longest_value
        hosts_get = self.hosts.get
        cpe = self._responsive_cpe(day)
        seed = self._seed
        icmp = int(Protocol.ICMP)
        udp53 = int(Protocol.UDP53)
        masks = bytearray(len(targets))
        asns: List[Optional[int]] = []
        behaviors: List[Optional[DnsBehavior]] = []
        asns_append = asns.append
        behaviors_append = behaviors.append
        for index, target in enumerate(targets):
            slash64 = target >> 64
            asn = origin_cache.get(slash64, _MISSING)
            if asn is _MISSING:
                asn = snapshot_origin(target)
                origin_cache[slash64] = asn
            asns_append(asn)
            if slash64 in long_slash64s:
                region = longest_value(target)
            else:
                region = region_cache.get(slash64, _MISSING)
                if region is _MISSING:
                    region = longest_value(target)
                    region_cache[slash64] = region
            if region is not None and not region.active(day):
                region = None
            mask = 0
            behavior: Optional[DnsBehavior] = None
            if region is not None:
                mask = int(region.protocols)
                if mask & udp53:
                    behavior = region.dns_behavior
            host = hosts_get(target)
            if host is not None and host.is_up(target, day, seed):
                mask |= host.protocols
                if behavior is None and host.protocols & udp53:
                    behavior = host.dns_behavior
            if not mask & icmp and target in cpe:
                mask |= icmp
            masks[index] = mask
            behaviors_append(behavior)
        return masks, asns, behaviors

    def probe_masks(self, targets: Sequence[int], day: int) -> bytearray:
        """Response masks alone, one byte per target.

        The ground-truth walk of :meth:`probe_batch_arrays` without the
        origin-AS and DNS-behavior columns, for probes that only ask
        "does it answer", e.g. the APD's ICMP + TCP/80 spot checks; the
        routing table is never touched.  The region is resolved once per
        run of targets in one /64 (an APD probe list of a /64-or-longer
        candidate is 16 such targets), except in a /64 holding a region
        longer than /64, where each target takes its own longest match.
        """
        region_cache = self._region_cache
        long_slash64s = self._long_region_slash64s
        longest_value = self._region_trie.longest_value
        hosts_get = self.hosts.get
        cpe = self._responsive_cpe(day)
        seed = self._seed
        icmp = int(Protocol.ICMP)
        masks = bytearray(len(targets))
        previous = long = None
        region_mask = 0
        for index, target in enumerate(targets):
            slash64 = target >> 64
            if slash64 != previous:
                previous = slash64
                long = slash64 in long_slash64s
                if not long:
                    region = region_cache.get(slash64, _MISSING)
                    if region is _MISSING:
                        region = longest_value(target)
                        region_cache[slash64] = region
                    region_mask = 0
                    if region is not None and region.active(day):
                        region_mask = int(region.protocols)
            if long:
                region = longest_value(target)
                mask = 0
                if region is not None and region.active(day):
                    mask = int(region.protocols)
            else:
                mask = region_mask
            host = hosts_get(target)
            if host is not None and host.is_up(target, day, seed):
                mask |= host.protocols
            if not mask & icmp and target in cpe:
                mask |= icmp
            masks[index] = mask
        return masks

    def batch_responsive(
        self, addresses: Iterable[int], protocol: Protocol, day: int
    ) -> Set[int]:
        """The subset of ``addresses`` that answers ``protocol`` probes."""
        return {
            address for address in addresses if self.responds(address, protocol, day)
        }

    def dns_probe(self, target: int, qname: str, day: int) -> List[DnsResponse]:
        """All responses a UDP/53 query towards ``target`` provokes.

        Includes GFW-injected forgeries (source-spoofed as the target)
        and the target's genuine answer when it runs a DNS service.
        """
        target_asn = self.origin_as(target, day)
        responses = self.gfw.inject(target, target_asn, qname, day)
        genuine = self._genuine_dns_response(target, qname, day)
        if genuine is not None:
            responses.append(genuine)
        return responses

    def _genuine_dns_response(
        self, target: int, qname: str, day: int
    ) -> Optional[DnsResponse]:
        region = self.region_of(target, day)
        if region is not None and region.protocols & Protocol.UDP53:
            behavior = region.dns_behavior
        else:
            host = self.hosts.get(target)
            if host is None or not host.responds(target, Protocol.UDP53, day, self._seed):
                return None
            behavior = host.dns_behavior
        return self._answer_as(behavior, target, qname, day)

    def _answer_as(
        self, behavior: DnsBehavior, target: int, qname: str, day: int
    ) -> Optional[DnsResponse]:
        if behavior in (DnsBehavior.NOT_DNS, DnsBehavior.AUTH_OR_CLOSED):
            # Authoritative-only servers and closed resolvers answer the
            # probe, but refuse to resolve a foreign name recursively.
            return DnsResponse(responder=target, qname=qname, status=DnsStatus.REFUSED)
        if behavior is DnsBehavior.REFERRAL:
            answer = DnsAnswer(rtype=RecordType.NS, target="a.root-servers.net")
            return DnsResponse(
                responder=target, qname=qname, status=DnsStatus.NOERROR, answers=(answer,)
            )
        if behavior is DnsBehavior.BROKEN:
            draw = mix64(target ^ mix64(day))
            if draw % 2:
                return DnsResponse(responder=target, qname=qname, status=DnsStatus.SERVFAIL)
            answer = DnsAnswer(rtype=RecordType.AAAA, address=1)  # ::1, localhost
            return DnsResponse(
                responder=target, qname=qname, status=DnsStatus.NOERROR, answers=(answer,)
            )
        # Open and proxy resolvers actually resolve the name.
        addresses = self.resolve_name(qname)
        if not addresses:
            return DnsResponse(responder=target, qname=qname, status=DnsStatus.NXDOMAIN)
        if self._is_control_name(qname):
            egress = target
            if behavior is DnsBehavior.PROXY_RESOLVER:
                egress = target ^ mix64(target) & 0xFFFF  # different interface
            self.control_ns_log.append(ControlNsQuery(qname=qname, source=egress))
        answers = tuple(
            DnsAnswer(rtype=RecordType.AAAA, address=address) for address in addresses
        )
        return DnsResponse(
            responder=target, qname=qname, status=DnsStatus.NOERROR, answers=answers
        )

    def _is_control_name(self, qname: str) -> bool:
        lowered = qname.lower()
        return lowered == self.control_domain or lowered.endswith(
            "." + self.control_domain
        )

    def resolve_name(self, qname: str) -> Tuple[int, ...]:
        """Authoritative AAAA resolution of any name in the simulation."""
        if self._is_control_name(qname):
            return (self.control_aaaa,)
        return self.zone.resolve_aaaa(qname)

    # ------------------------------------------------------------------
    # TCP fingerprints

    def tcp_fingerprint(self, address: int, day: int) -> Optional[TcpFingerprint]:
        """Handshake features of a TCP/80 connection, if one completes."""
        region = self.region_of(address, day)
        if region is not None and region.protocols & (Protocol.TCP80 | Protocol.TCP443):
            return region.fingerprint_for(address)
        host = self.hosts.get(address)
        if host is None:
            return None
        if not host.responds(address, Protocol.TCP80, day, self._seed) and not host.responds(
            address, Protocol.TCP443, day, self._seed
        ):
            return None
        return self._fingerprints.get(host.fingerprint_id)

    # ------------------------------------------------------------------
    # ICMP echo + Packet Too Big (the Too Big Trick substrate)

    def _pmtu_key(self, address: int, day: int) -> Optional[tuple]:
        region = self.region_of(address, day)
        if region is not None and region.protocols & Protocol.ICMP:
            if not region.answers_large_echo:
                return None
            return region.pmtu_cache_key(address)
        host = self.hosts.get(address)
        if host is not None and host.responds(address, Protocol.ICMP, day, self._seed):
            return ("host", address)
        return None

    def icmp_echo(self, address: int, day: int, size: int = 56) -> Optional[EchoReply]:
        """Send an ICMP echo request of ``size`` bytes.

        Replies are fragmented when the responder's PMTU cache for our
        path is smaller than the reply size.
        """
        if size <= _IPV6_MIN_MTU and not self.responds(address, Protocol.ICMP, day):
            return None
        key = self._pmtu_key(address, day)
        if key is None:
            return None
        mtu = self._pmtu_caches.get(key, _DEFAULT_MTU)
        return EchoReply(responder=address, size=size, fragmented=size > mtu)

    def send_packet_too_big(self, address: int, day: int, mtu: int = _IPV6_MIN_MTU) -> bool:
        """Deliver an ICMPv6 Packet Too Big to ``address``'s responder.

        Returns True when some responder updated a PMTU cache.
        """
        key = self._pmtu_key(address, day)
        if key is None:
            return False
        self._pmtu_caches[key] = mtu
        return True

    def reset_pmtu_caches(self) -> None:
        """Expire all PMTU cache entries (between experiment runs)."""
        self._pmtu_caches.clear()

    # ------------------------------------------------------------------
    # traceroute

    def trace_hops(
        self,
        targets: Iterable[int],
        day: int,
        blocked: Optional[Callable[[int], bool]] = None,
    ) -> Set[int]:
        """Hop addresses that traceroutes towards ``targets`` reveal.

        A trace depends only on the target's /48, its origin AS and the
        CPE fleets' rotation epochs, so each distinct (/48, origin) route
        is expanded once per call.  Hops for which ``blocked`` answers
        True never enter the result.  The set is built by inserting hops
        in the order a per-target loop would first meet them: its
        iteration order, which callers persist, depends on that order.
        """
        snapshot = self.routing.snapshot_at(day)
        if snapshot is not self._origin_cache_state["snapshot"]:
            self._origin_cache.clear()
            self._origin_cache_state["snapshot"] = snapshot
        origin_cache = self._origin_cache
        snapshot_origin = snapshot.origin_as
        topology = self.topology
        routes = self._trace_routes
        expanded = object()  # marks the routes this call has expanded
        today: Dict[Tuple[int, int], int] = {}  # last-hop device -> address
        hops: Set[int] = set()
        add = hops.add
        for target in targets:
            slash64 = target >> 64
            asn = origin_cache.get(slash64, _MISSING)
            if asn is _MISSING:
                asn = snapshot_origin(target)
                origin_cache[slash64] = asn
            # one int per (/48, origin AS): ASNs are 32-bit, and a negative
            # key stands for an unrouted /48
            key = target >> 80 << 32 | asn if asn is not None else ~(target >> 80)
            route = routes.get(key)
            if route is None:
                devices = topology.last_hop_devices(target >> 84, asn)
                route = routes[key] = [
                    None,
                    self._trace_devices.setdefault(devices, devices),
                    *topology.route_hops(target >> 80, asn),
                ]
            elif route[0] is expanded:
                continue
            route[0] = expanded
            path = route[2:]
            for device in route[1]:
                address = today.get(device)
                if address is None:
                    address = today[device] = self._cpe_address(device, day)
                path.append(address)
            if blocked is None:
                hops.update(path)
            else:
                for hop in path:
                    if not blocked(hop):
                        add(hop)
        return hops

    def _cpe_address(self, device: Tuple[int, int], day: int) -> int:
        """A ``(fleet index, device)`` pair's address on ``day``.

        Memoized for the device's latest rotation epoch only, so the memo
        stays as small as the set of last-hop devices however long the
        campaign runs.
        """
        index, number = device
        fleet = self.topology.fleets[index]
        epoch = day // fleet.rotation_period
        cached = self._cpe_addresses.get(device)
        if cached is None or cached[0] != epoch:
            cached = self._cpe_addresses[device] = (epoch, fleet.address_of(number, day))
        return cached[1]
