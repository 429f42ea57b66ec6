"""Traceroute topology: transit routers, core routers, rotating CPE fleets.

Traceroutes (the service's own Yarrp runs plus RIPE-Atlas-style external
measurements) are the paper's dominant input source and the origin of two
of its findings: the accumulation of rotating EUI-64 CPE addresses from
ISPs like ANTEL and DTAG (Sec. 4.1) and the discovery of ephemeral
Chinese last-hop addresses that trigger GFW injection (Sec. 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro._util import mix64
from repro.net.eui64 import eui64_interface_id
from repro.net.prefix import IPv6Prefix

_LOW64 = (1 << 64) - 1


@dataclass(frozen=True)
class CpeFleet:
    """A fleet of customer-premises devices behind one ISP.

    Each device owns a MAC address (``oui << 24 | device_index`` plus a
    fleet-specific base); the ISP assigns each device a /64 out of
    ``pool`` and rotates that assignment every ``rotation_period`` days.
    Devices with ``eui64_iids`` derive their interface ID from the MAC
    (trackable across rotations, as Rye et al. showed); otherwise the IID
    is randomized per rotation.

    ``shared_mac_devices`` devices at the low end of the index range all
    share the vendor's default MAC — reproducing the paper's top EUI-64
    value that appeared in 240 k distinct addresses within one /32.
    """

    fleet_id: int
    asn: int
    pool: IPv6Prefix
    device_count: int
    oui: int
    vendor: str
    eui64_iids: bool = True
    rotation_period: int = 14
    daily_observations: int = 10
    shared_mac_devices: int = 0
    #: fraction of devices answering ICMP at their current address.  Their
    #: rotating-but-briefly-responsive addresses drive the paper's huge
    #: cumulative responsive count (45.3 M ever vs. 3.1 M at once) and the
    #: per-scan churn of Fig. 4.
    responsive_share: float = 0.0
    #: how many distinct rotating last-hop interfaces traceroutes into
    #: this AS can reveal per rotation epoch (aggregation-router bound).
    trace_groups: int = 16

    def __post_init__(self) -> None:
        if self.pool.length > 64:
            raise ValueError("CPE pool must be /64 or shorter")
        if self.device_count < 1:
            raise ValueError("fleet needs at least one device")

    def mac_of(self, device: int) -> int:
        """The MAC address of one device (shared-default devices collide).

        Serials encode (fleet, device) so distinct devices never alias a
        MAC by accident — only the vendor-default subfleet shares one.
        """
        if device < self.shared_mac_devices:
            serial = 0  # vendor default MAC, never provisioned properly
        else:
            serial = ((self.fleet_id << 16) | (device & 0xFFFF)) & 0xFFFFFF
            serial = serial or 1
        return (self.oui << 24) | serial

    def network_of(self, device: int, day: int) -> int:
        """The /64 network assigned to a device during ``day``'s epoch."""
        epoch = day // self.rotation_period
        subnet_bits = 64 - self.pool.length
        slot = mix64(mix64(self.fleet_id ^ device) ^ epoch) & ((1 << subnet_bits) - 1)
        return self.pool.value | (slot << 64)

    def address_of(self, device: int, day: int) -> int:
        """The WAN address a traceroute would capture for a device."""
        network = self.network_of(device, day)
        if self.eui64_iids:
            iid = eui64_interface_id(self.mac_of(device))
        else:
            epoch = day // self.rotation_period
            iid = mix64(mix64(self.fleet_id ^ device ^ 0xC0FFEE) ^ epoch) & _LOW64
        return network | iid

    def device_responds(self, device: int) -> bool:
        """True for the stable subset of devices that answer pings."""
        if self.responsive_share <= 0.0:
            return False
        draw = mix64(mix64(self.fleet_id ^ 0x9E3779B9) ^ device)
        return draw < int(self.responsive_share * float(1 << 64))

    def responsive_addresses(self, day: int) -> List[int]:
        """Current addresses of all ping-answering devices."""
        return [
            self.address_of(device, day)
            for device in range(self.device_count)
            if self.device_responds(device)
        ]

    def observed_devices(self, day: int) -> List[int]:
        """Devices visible to measurement platforms on ``day``."""
        count = min(self.daily_observations, self.device_count)
        salt = mix64(self.fleet_id ^ 0xA71A5)
        # combine (day, index) injectively: day ^ index would collide
        # across days and starve the discovery rate
        return [
            mix64(salt ^ (day * 1024 + index)) % self.device_count
            for index in range(count)
        ]


class RouterTopology:
    """Answers "what hops does a traceroute to X reveal on day D?"."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._transit_routers: List[int] = []
        self._core_routers: Dict[int, List[int]] = {}
        self._fleets_by_asn: Dict[int, List[CpeFleet]] = {}
        self._fleets: List[CpeFleet] = []

    def add_transit_router(self, address: int) -> None:
        """Register a backbone router visible on many paths."""
        self._transit_routers.append(address)

    def add_core_router(self, asn: int, address: int) -> None:
        """Register a stable core router inside an AS."""
        self._core_routers.setdefault(asn, []).append(address)

    def add_fleet(self, fleet: CpeFleet) -> None:
        """Register a CPE fleet (its addresses appear as last hops)."""
        self._fleets_by_asn.setdefault(fleet.asn, []).append(fleet)
        self._fleets.append(fleet)

    @property
    def fleets(self) -> Tuple[CpeFleet, ...]:
        """All registered fleets."""
        return tuple(self._fleets)

    def fleets_of(self, asn: int) -> Tuple[CpeFleet, ...]:
        """Fleets homed in one AS."""
        return tuple(self._fleets_by_asn.get(asn, ()))

    def core_routers_of(self, asn: int) -> Tuple[int, ...]:
        """Stable core routers of one AS."""
        return tuple(self._core_routers.get(asn, ()))

    def route_hops(self, slash48: int, target_asn: Optional[int]) -> Tuple[int, ...]:
        """The day-independent hops of a traceroute towards a /48.

        The path is synthetic but stable per (target /48, origin AS): two
        transit hops and up to two destination-AS core routers, without
        duplicates.  The rotating last hop comes from
        :meth:`last_hop_devices`; the target itself is never included
        (whether it answers is the scanner's business).
        """
        hops: List[int] = []
        route_key = mix64(slash48 ^ mix64(self._seed))
        if self._transit_routers:
            for index in range(2):
                pick = mix64(route_key ^ index) % len(self._transit_routers)
                hops.append(self._transit_routers[pick])
        core = self._core_routers.get(target_asn)
        if core:
            hops.append(core[route_key % len(core)])
            if len(core) > 1:
                hops.append(core[(route_key >> 8) % len(core)])
        return tuple(dict.fromkeys(hops))

    def last_hop_devices(
        self, slash44: int, target_asn: Optional[int],
    ) -> Tuple[Tuple[int, int], ...]:
        """``(fleet index, device)`` of each last hop towards a /44.

        Every CPE fleet of the destination AS contributes one last hop:
        the current address (``fleets[index].address_of(device, day)``)
        of the device its aggregation group maps to.  Last-hop diversity
        is bounded by aggregation infrastructure: targets map onto
        ``trace_groups`` rotating interfaces, so tracing more targets
        cannot mint unbounded new addresses.
        """
        devices = []
        for index, fleet in enumerate(self._fleets):
            if fleet.asn != target_asn:
                continue
            groups = max(min(fleet.trace_groups, fleet.device_count), 1)
            group = mix64(slash44 ^ fleet.fleet_id) % groups
            devices.append((index, mix64(fleet.fleet_id ^ 0x77 ^ group) % fleet.device_count))
        return tuple(devices)

    def atlas_sample(self, day: int) -> List[int]:
        """CPE addresses observed by external platforms on ``day``.

        Models RIPE Atlas probes homed inside ISPs whose WAN addresses
        show up in public traceroute data every day.
        """
        observed: List[int] = []
        for fleet in self._fleets:
            for device in fleet.observed_devices(day):
                observed.append(fleet.address_of(device, day))
        return observed
