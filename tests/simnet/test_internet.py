"""Tests for the SimInternet probe oracle (small world)."""

from repro.net.teredo import is_teredo
from repro.protocols import DnsStatus, Protocol, RecordType
from repro.simnet.hosts import DnsBehavior


def _first_host_with(world, predicate):
    for address, record in world.hosts.items():
        if predicate(record):
            return address, record
    raise AssertionError("no matching host in small world")


class TestResponsiveness:
    def test_host_responds_per_mask(self, small_world):
        address, record = _first_host_with(
            small_world,
            lambda r: r.protocols & Protocol.ICMP and r.stability >= 1.0 and r.born_day == 0,
        )
        assert small_world.responds(address, Protocol.ICMP, 0)

    def test_unassigned_address_silent(self, small_world):
        assert not small_world.responds(0x3FFF << 112, Protocol.ICMP, 100)

    def test_region_address_responds_everywhere(self, small_world):
        region = next(r for r in small_world.regions if r.active_from == 0)
        for salt in (1, 12345, 987654321):
            address = region.prefix.value | (salt % region.prefix.num_addresses)
            protocol = next(p for p in (Protocol.ICMP, Protocol.TCP80) if region.protocols & p)
            assert small_world.responds(address, protocol, 10)

    def test_region_inactive_before_activation(self, small_world):
        region = next(r for r in small_world.regions if r.active_from > 50)
        address = region.prefix.value | 1
        protocol = next(
            p for p in (Protocol.ICMP, Protocol.TCP80) if region.protocols & p
        )
        if small_world.region_of(address, region.active_from - 1) is None:
            assert not small_world.responds(address, protocol, region.active_from - 1)
        assert small_world.responds(address, protocol, region.active_from)

    def test_batch_matches_single(self, small_world):
        addresses = list(small_world.hosts)[:200]
        batch = small_world.batch_responsive(addresses, Protocol.ICMP, 50)
        singles = {a for a in addresses if small_world.responds(a, Protocol.ICMP, 50)}
        assert batch == singles


class TestRegionLookup:
    def test_region_of_caches_consistently(self, small_world):
        region = small_world.regions[0]
        address = region.prefix.value | 7
        first = small_world.region_of(address, region.active_from)
        second = small_world.region_of(address, region.active_from)
        assert first is second is not None

    def test_region_of_none_outside(self, small_world):
        assert small_world.region_of(1, 0) is None


class TestDnsProbe:
    def test_gfw_injection_for_blocked_domain(self, small_world):
        gfw = small_world.gfw
        era = gfw.eras[-1]
        day = era.start_day
        cn_asn = next(iter(gfw._boundary.inside_asns))
        prefix = small_world.routing.base.prefixes_of(cn_asn)[0]
        target = prefix.value | 0xDEAD
        responses = small_world.dns_probe(target, "www.google.com", day)
        injected = [r for r in responses if r.injected]
        assert len(injected) >= 2
        assert all(r.responder == target for r in injected)

    def test_no_injection_for_control_domain(self, small_world):
        gfw = small_world.gfw
        day = gfw.eras[-1].start_day
        cn_asn = next(iter(gfw._boundary.inside_asns))
        prefix = small_world.routing.base.prefixes_of(cn_asn)[0]
        target = prefix.value | 0xDEAD
        responses = small_world.dns_probe(
            target, "x." + small_world.control_domain, day
        )
        assert all(not r.injected for r in responses)

    def test_auth_server_refuses(self, small_world):
        address, record = _first_host_with(
            small_world,
            lambda r: r.dns_behavior is DnsBehavior.AUTH_OR_CLOSED and r.born_day == 0,
        )
        day = next(
            d for d in range(0, 400) if record.is_up(address, d, small_world._seed)
        )
        (response,) = small_world.dns_probe(address, "whatever.example", day)
        assert response.status is DnsStatus.REFUSED
        assert not response.injected

    def test_open_resolver_resolves_and_logs(self, small_world):
        try:
            address, record = _first_host_with(
                small_world,
                lambda r: r.dns_behavior is DnsBehavior.OPEN_RESOLVER and r.born_day == 0,
            )
        except AssertionError:
            import pytest

            pytest.skip("tiny world drew no open resolvers")
        day = next(d for d in range(0, 200) if record.is_up(address, d, small_world._seed))
        small_world.control_ns_log.clear()
        qname = "hash123." + small_world.control_domain
        (response,) = small_world.dns_probe(address, qname, day)
        assert response.status is DnsStatus.NOERROR
        assert response.answer_addresses == (small_world.control_aaaa,)
        assert small_world.control_ns_log[-1].qname == qname
        assert small_world.control_ns_log[-1].source == address

    def test_teredo_answers_in_last_era(self, small_world):
        gfw = small_world.gfw
        era = gfw.eras[-1]
        cn_asn = next(iter(gfw._boundary.inside_asns))
        prefix = small_world.routing.base.prefixes_of(cn_asn)[0]
        responses = small_world.dns_probe(prefix.value | 5, "www.google.com", era.start_day)
        answers = [a for r in responses if r.injected for a in r.answers]
        assert answers
        assert all(a.rtype is RecordType.AAAA and is_teredo(a.address) for a in answers)


class TestTbtSubstrate:
    def test_echo_and_ptb_cycle(self, small_world):
        region = next(
            r
            for r in small_world.regions
            if r.answers_large_echo and r.pmtu_groups == 1 and r.active_from == 0
            and r.protocols & Protocol.ICMP
        )
        a = region.prefix.value | 1
        b = region.prefix.value | 2
        small_world.reset_pmtu_caches()
        reply = small_world.icmp_echo(a, 0, size=1300)
        assert reply is not None and not reply.fragmented
        assert small_world.send_packet_too_big(a, 0)
        assert small_world.icmp_echo(a, 0, size=1300).fragmented
        # shared PMTU cache: the sibling address fragments too
        assert small_world.icmp_echo(b, 0, size=1300).fragmented
        small_world.reset_pmtu_caches()
        assert not small_world.icmp_echo(b, 0, size=1300).fragmented

    def test_unresponsive_address_no_echo(self, small_world):
        assert small_world.icmp_echo(0x3FFF << 112, 0) is None

    def test_non_cooperative_region_silent_on_large_echo(self, small_world):
        region = next(
            (r for r in small_world.regions
             if not r.answers_large_echo and r.active_from == 0
             and r.protocols & Protocol.ICMP),
            None,
        )
        if region is None:
            import pytest

            pytest.skip("no non-cooperative region in this world")
        assert small_world.icmp_echo(region.prefix.value | 1, 0, size=1300) is None


class TestFingerprints:
    def test_region_fingerprint(self, small_world):
        region = next(
            r for r in small_world.regions
            if r.fingerprint is not None and r.active_from == 0
        )
        fp = small_world.tcp_fingerprint(region.prefix.value | 3, 0)
        assert fp is not None

    def test_silent_for_non_tcp(self, small_world):
        assert small_world.tcp_fingerprint(0x3FFF << 112, 0) is None


class TestTrace:
    def test_trace_returns_hops(self, small_world):
        target = next(iter(small_world.hosts))
        hops = small_world.trace_hops([target], 0)
        assert hops
        assert target not in hops
