"""Tests for the ZMap scanner and Yarrp tracer.

Scans go through ``ZMapScanner.scan_all_protocols`` (the scan engine);
``_icmp`` and ``_udp53`` pick one protocol's result out of it.
"""

import pytest

from repro.net.prefix import IPv6Prefix
from repro.protocols import Protocol
from repro.scan.blocklist import Blocklist
from repro.scan.yarrp import YarrpTracer
from repro.scan.zmap import ZMapScanner


QNAME = "www.google.com"


@pytest.fixture
def lossless(small_world):
    return ZMapScanner(small_world, loss_rate=0.0)


def _icmp(scanner, targets, day):
    return scanner.scan_all_protocols(targets, day, QNAME)[0][Protocol.ICMP]


def _udp53(scanner, targets, day):
    return scanner.scan_all_protocols(targets, day, QNAME)[1]


def _up_hosts(world, protocol, day, limit=200):
    return [
        address
        for address, record in world.hosts.items()
        if record.responds(address, protocol, day, world._seed)
    ][:limit]


class TestZMapScan:
    def test_lossless_scan_matches_oracle(self, small_world, lossless):
        targets = list(small_world.hosts)[:300]
        result = _icmp(lossless, targets, 10)
        expected = small_world.batch_responsive(targets, Protocol.ICMP, 10)
        assert set(result.responders) == expected
        assert result.targets == 300

    def test_loss_reduces_responders(self, small_world):
        targets = _up_hosts(small_world, Protocol.ICMP, 10, limit=1000)
        lossy = ZMapScanner(small_world, loss_rate=0.5, seed=1)
        result = _icmp(lossy, targets, 10)
        assert 0 < len(result.responders) < len(targets)

    def test_loss_is_deterministic_per_day(self, small_world):
        targets = list(small_world.hosts)[:500]
        scanner = ZMapScanner(small_world, loss_rate=0.2, seed=5)
        a = _icmp(scanner, targets, 10)
        b = _icmp(scanner, targets, 10)
        assert a.responders == b.responders

    def test_loss_differs_between_days(self, small_world):
        targets = _up_hosts(small_world, Protocol.ICMP, 10, limit=500)
        stable = [
            a for a in targets
            if small_world.hosts[a].stability >= 1.0
        ]
        if len(stable) < 30:
            pytest.skip("not enough always-up hosts")
        scanner = ZMapScanner(small_world, loss_rate=0.3, seed=5)
        a = _icmp(scanner, stable, 10)
        b = _icmp(scanner, stable, 11)
        assert a.responders != b.responders

    def test_blocklist_respected(self, small_world):
        target = next(iter(small_world.hosts))
        blocklist = Blocklist()
        blocklist.add(IPv6Prefix(target, 128))
        scanner = ZMapScanner(small_world, blocklist=blocklist, loss_rate=0.0)
        result = _icmp(scanner, [target], 0)
        assert result.targets == 0
        assert not result.responders

    def test_hit_rate(self, small_world, lossless):
        result = _icmp(lossless, [0x3FFF << 112], 0)
        assert result.hit_rate == 0.0
        empty = _icmp(lossless, [], 0)
        assert empty.hit_rate == 0.0

    def test_invalid_loss_rate(self, small_world):
        with pytest.raises(ValueError):
            ZMapScanner(small_world, loss_rate=1.5)

    def test_probe_accounting(self, small_world, lossless):
        before = lossless.probes_sent
        _icmp(lossless, list(small_world.hosts)[:100], 0)
        # one probe per protocol and target
        assert lossless.probes_sent == before + 5 * 100


class TestUdp53Scan:
    def test_injection_counts_as_responsive(self, small_world):
        gfw = small_world.gfw
        day = gfw.eras[-1].start_day
        cn_asn = next(iter(gfw._boundary.inside_asns))
        prefix = small_world.routing.base.prefixes_of(cn_asn)[0]
        dead_target = prefix.value | 0xDEADBEEF
        scanner = ZMapScanner(small_world, loss_rate=0.0)
        result = _udp53(scanner, [dead_target], day)
        assert dead_target in result.responders
        assert all(r.injected for r in result.responses[dead_target])

    def test_no_injection_outside_era(self, small_world):
        gfw = small_world.gfw
        day = gfw.eras[0].end_day + 5
        cn_asn = next(iter(gfw._boundary.inside_asns))
        prefix = small_world.routing.base.prefixes_of(cn_asn)[0]
        dead_target = prefix.value | 0xDEADBEEF
        scanner = ZMapScanner(small_world, loss_rate=0.0)
        result = _udp53(scanner, [dead_target], day)
        assert dead_target not in result.responders

    def test_real_dns_server_responds(self, small_world):
        dns_hosts = _up_hosts(small_world, Protocol.UDP53, 10)
        if not dns_hosts:
            pytest.skip("no DNS hosts up in this tiny world")
        scanner = ZMapScanner(small_world, loss_rate=0.0)
        result = _udp53(scanner, dns_hosts, 10)
        assert set(result.responders) == set(dns_hosts)

    def test_scan_all_protocols(self, small_world):
        scanner = ZMapScanner(small_world, loss_rate=0.0)
        targets = list(small_world.hosts)[:100]
        results, udp53 = scanner.scan_all_protocols(targets, 10, QNAME)
        assert set(results) == {
            Protocol.ICMP, Protocol.TCP80, Protocol.TCP443, Protocol.UDP443
        }
        assert udp53.targets == 100


class TestYarrp:
    def test_trace_discovers_hops(self, small_world):
        tracer = YarrpTracer(small_world)
        targets = list(small_world.hosts)[:50]
        result = tracer.trace_targets(targets, 10)
        assert result.targets_traced == 50
        assert result.hops

    def test_sampling_reduces_work(self, small_world):
        tracer = YarrpTracer(small_world, sample_rate=0.2, seed=3)
        targets = list(small_world.hosts)[:200]
        result = tracer.trace_targets(targets, 10)
        assert 0 < result.targets_traced < 200

    def test_blocklist_blocks_targets_and_hops(self, small_world):
        target = next(iter(small_world.hosts))
        full = YarrpTracer(small_world).trace_targets([target], 10)
        blocklist = Blocklist()
        for hop in full.hops:
            blocklist.add(IPv6Prefix(hop, 128))
        tracer = YarrpTracer(small_world, blocklist=blocklist)
        result = tracer.trace_targets([target], 10)
        assert not result.hops

    def test_invalid_sample_rate(self, small_world):
        with pytest.raises(ValueError):
            YarrpTracer(small_world, sample_rate=0.0)


class TestUdp53HitRate:
    def test_hit_rate_matches_counts(self, small_world):
        scanner = ZMapScanner(small_world, loss_rate=0.0)
        dns_hosts = _up_hosts(small_world, Protocol.UDP53, 10)
        if not dns_hosts:
            pytest.skip("no DNS hosts up in this tiny world")
        dead = [0x3FFF << 112, (0x3FFF << 112) | 1]
        result = _udp53(scanner, dns_hosts + dead, 10)
        assert result.hit_rate == len(result.responders) / result.targets
        assert 0.0 < result.hit_rate < 1.0

    def test_hit_rate_empty_scan(self, small_world):
        scanner = ZMapScanner(small_world, loss_rate=0.0)
        result = _udp53(scanner, [], 10)
        assert result.targets == 0
        assert result.hit_rate == 0.0
