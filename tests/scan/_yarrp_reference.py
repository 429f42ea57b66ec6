"""Frozen per-target reference of the Yarrp tracer and the topology trace.

``YarrpTracer.trace_targets`` hands a scan's traced targets to
``SimInternet.trace_hops``, which expands each distinct (/48, origin AS)
route once per scan from two memos.  This module keeps the per-target
path it replaced: one topology trace per target behind a memo that is
cleared whenever any CPE fleet rotates, and a tracer loop that adds each
target's hops to the result set one by one.  Differential tests run both
and demand identical hop sets in identical iteration order,
``targets_traced`` and metric state.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro._util import mix64
from repro.scan.yarrp import TraceRunResult, YarrpTracer
from repro.simnet.internet import SimInternet
from repro.simnet.routers import RouterTopology

_M64 = 0xFFFFFFFFFFFFFFFF
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB


def topology_trace(
    topology: RouterTopology, target: int, target_asn: Optional[int], day: int,
) -> List[int]:
    """Hop addresses revealed by one traceroute towards ``target``.

    Two transit hops, up to two destination-AS core routers and, for
    ASes operating CPE fleets, one rotating last-hop CPE address per
    fleet, without duplicates.
    """
    hops: List[int] = []
    route_key = mix64((target >> 80) ^ mix64(topology._seed))
    transit = topology._transit_routers
    if transit:
        for index in range(2):
            pick = mix64(route_key ^ index) % len(transit)
            hops.append(transit[pick])
    if target_asn is not None:
        core = topology._core_routers.get(target_asn)
        if core:
            hops.append(core[route_key % len(core)])
            if len(core) > 1:
                hops.append(core[(route_key >> 8) % len(core)])
        for fleet in topology.fleets_of(target_asn):
            groups = max(min(fleet.trace_groups, fleet.device_count), 1)
            group = mix64((target >> 84) ^ fleet.fleet_id) % groups
            device = mix64(fleet.fleet_id ^ 0x77 ^ group) % fleet.device_count
            hops.append(fleet.address_of(device, day))
    seen = set()
    unique = []
    for hop in hops:
        if hop not in seen:
            seen.add(hop)
            unique.append(hop)
    return unique


class ReferenceTrace:
    """The per-target ``SimInternet.trace`` with its epoch-cleared memo."""

    def __init__(self, internet: SimInternet) -> None:
        self._internet = internet
        self._cache: Dict[Tuple[int, Optional[int]], List[int]] = {}
        self._day: Optional[int] = None
        self._epochs: Optional[Tuple[int, ...]] = None

    def __call__(self, target: int, day: int) -> List[int]:
        topology = self._internet.topology
        if day != self._day:
            epochs = tuple(day // fleet.rotation_period for fleet in topology.fleets)
            if epochs != self._epochs:
                self._cache.clear()
                self._epochs = epochs
            self._day = day
        asn = self._internet.origin_as(target, day)
        key = (target >> 80, asn)
        hops = self._cache.get(key)
        if hops is None:
            hops = topology_trace(topology, target, asn, day)
            self._cache[key] = hops
        return hops


class ReferenceYarrpTracer(YarrpTracer):
    """``YarrpTracer`` with the per-target trace loop."""

    def __init__(self, internet: SimInternet, *args, **kwargs) -> None:
        super().__init__(internet, *args, **kwargs)
        self._trace = ReferenceTrace(internet)

    def trace_targets(self, targets: Iterable[int], day: int) -> TraceRunResult:
        result = TraceRunResult(day=day)
        plan = self._fault_plan
        if plan is not None and plan.vantage_down(day):
            return result
        blocklist = self._blocklist
        blocked = blocklist.is_blocked if len(blocklist) else None
        sample_all = self._sample_rate >= 1.0
        day_hash = mix64(day ^ self._seed)
        threshold = self._sample_threshold
        hops_seen = result.hops
        for target in targets:
            if blocked is not None and blocked(target):
                continue
            if not sample_all:
                value = ((target & _M64) ^ (target >> 64) ^ day_hash) & _M64
                value = ((value ^ (value >> 30)) * _MIX_C1) & _M64
                value = ((value ^ (value >> 27)) * _MIX_C2) & _M64
                if (value ^ (value >> 31)) >= threshold:
                    continue
            result.targets_traced += 1
            if blocked is None:
                hops_seen.update(self._trace(target, day))
            else:
                for hop in self._trace(target, day):
                    if not blocked(hop):
                        hops_seen.add(hop)
        if self._metrics is not None:
            self._m_targets.inc(result.targets_traced)
            self._m_hops.inc(len(result.hops))
        return result
