"""Tests for CPE fleets and the router topology."""

import pytest

from repro.net.eui64 import is_eui64_interface_id, mac_from_interface_id
from repro.net.prefix import parse_prefix
from repro.simnet.routers import CpeFleet, RouterTopology

_LOW64 = (1 << 64) - 1


def fleet(**kwargs):
    defaults = dict(
        fleet_id=1,
        asn=6057,
        pool=parse_prefix("2400:1000::/40"),
        device_count=100,
        oui=0x001E73,
        vendor="ZTE",
    )
    defaults.update(kwargs)
    return CpeFleet(**defaults)


class TestCpeFleet:
    def test_addresses_inside_pool(self):
        f = fleet()
        for device in range(20):
            assert f.pool.contains(f.address_of(device, 100))

    def test_eui64_iid_embeds_mac(self):
        f = fleet()
        address = f.address_of(3, 50)
        iid = address & _LOW64
        assert is_eui64_interface_id(iid)
        assert mac_from_interface_id(iid) == f.mac_of(3)

    def test_random_iid_fleet(self):
        f = fleet(eui64_iids=False)
        iid = f.address_of(3, 50) & _LOW64
        assert not is_eui64_interface_id(iid)

    def test_rotation_changes_network_not_mac(self):
        f = fleet(rotation_period=14)
        early = f.address_of(5, 0)
        late = f.address_of(5, 14)
        assert early != late
        assert (early & _LOW64) == (late & _LOW64)  # EUI-64 IID survives

    def test_stable_within_rotation_epoch(self):
        f = fleet(rotation_period=14)
        assert f.address_of(5, 0) == f.address_of(5, 13)

    def test_random_iid_changes_with_rotation(self):
        f = fleet(eui64_iids=False, rotation_period=7)
        assert (f.address_of(5, 0) & _LOW64) != (f.address_of(5, 7) & _LOW64)

    def test_shared_default_mac(self):
        f = fleet(shared_mac_devices=5)
        macs = {f.mac_of(device) for device in range(5)}
        assert len(macs) == 1
        assert f.mac_of(6) != f.mac_of(0)

    def test_shared_mac_many_distinct_addresses(self):
        f = fleet(shared_mac_devices=5, rotation_period=7)
        addresses = {
            f.address_of(device, day)
            for device in range(5)
            for day in range(0, 140, 7)
        }
        assert len(addresses) > 50  # one EUI-64 value, many prefixes

    def test_observed_devices_bounded(self):
        f = fleet(daily_observations=7)
        observed = f.observed_devices(3)
        assert len(observed) == 7
        assert all(0 <= device < f.device_count for device in observed)

    def test_pool_must_be_64_or_shorter(self):
        with pytest.raises(ValueError):
            fleet(pool=parse_prefix("2400:1000::/72"))

    def test_needs_devices(self):
        with pytest.raises(ValueError):
            fleet(device_count=0)


def trace(topology, target, asn, day):
    """One traceroute composed from the topology's two parts."""
    hops = list(topology.route_hops(target >> 80, asn))
    for index, device in topology.last_hop_devices(target >> 84, asn):
        hops.append(topology.fleets[index].address_of(device, day))
    return list(dict.fromkeys(hops))


class TestRouterTopology:
    @pytest.fixture
    def topology(self):
        topo = RouterTopology(seed=3)
        topo.add_transit_router(0x1111)
        topo.add_transit_router(0x2222)
        topo.add_core_router(6057, 0x3333)
        topo.add_core_router(6057, 0x4444)
        topo.add_fleet(fleet())
        return topo

    def test_trace_includes_transit_and_core(self, topology):
        hops = trace(topology, parse_prefix("2400:1000::/40").value | 7, 6057, 10)
        assert set(hops) & {0x1111, 0x2222}
        assert set(hops) & {0x3333, 0x4444}

    def test_trace_last_hop_is_fleet_address(self, topology):
        target = parse_prefix("2400:1000::/40").value | 7
        hops = trace(topology, target, 6057, 10)
        f = topology.fleets[0]
        assert any(f.pool.contains(hop) and hop not in (0x3333, 0x4444) for hop in hops)

    def test_trace_deterministic(self, topology):
        target = parse_prefix("2400:1000::/40").value | 7
        assert trace(topology, target, 6057, 10) == trace(topology, target, 6057, 10)

    def test_trace_rotates_last_hop(self, topology):
        target = parse_prefix("2400:1000::/40").value | 7
        early = set(trace(topology, target, 6057, 0))
        late = set(trace(topology, target, 6057, 200))
        assert early != late  # fleet address rotated

    def test_trace_unknown_asn(self, topology):
        hops = trace(topology, 123, None, 0)
        assert hops  # transit hops still visible
        assert set(hops) <= {0x1111, 0x2222}

    def test_no_duplicate_hops(self, topology):
        target = parse_prefix("2400:1000::/40").value | 7
        hops = trace(topology, target, 6057, 10)
        assert len(hops) == len(set(hops))

    def test_atlas_sample(self, topology):
        sample = topology.atlas_sample(5)
        f = topology.fleets[0]
        assert len(sample) == f.daily_observations
        assert all(f.pool.contains(address) for address in sample)

    def test_atlas_sample_changes_daily(self, topology):
        assert topology.atlas_sample(1) != topology.atlas_sample(2)

    def test_fleets_of(self, topology):
        assert len(topology.fleets_of(6057)) == 1
        assert topology.fleets_of(9999) == ()

    def test_core_routers_of(self, topology):
        assert topology.core_routers_of(6057) == (0x3333, 0x4444)
