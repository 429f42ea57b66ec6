"""Equivalence tests: the fused 5-protocol scan vs. individual scans.

The individual scans come from the frozen scalar reference prober
(``tests/scan/_scanner_reference.py``).
"""

import pytest

from repro.protocols import Protocol
from repro.scan.zmap import ZMapScanner
from tests.scan._scanner_reference import ReferenceScanner


class TestScanAllProtocolsEquivalence:
    def test_lossless_equivalence(self, small_world):
        scanner = ReferenceScanner(small_world, loss_rate=0.0)
        targets = list(small_world.hosts)[:400]
        fused, udp53 = scanner.scan_all_protocols(targets, 33, "www.google.com")
        for protocol in (Protocol.ICMP, Protocol.TCP80, Protocol.TCP443,
                         Protocol.UDP443):
            single = scanner.scan(targets, protocol, 33)
            assert fused[protocol].responders == single.responders, protocol
            assert fused[protocol].targets == single.targets
        single = scanner.scan_udp53(targets, 33, "www.google.com")
        assert udp53.responders == single.responders
        assert udp53.responses == single.responses
        assert udp53.targets == single.targets

    def test_lossy_deterministic(self, small_world):
        scanner = ZMapScanner(small_world, loss_rate=0.10, seed=9)
        targets = list(small_world.hosts)[:400]
        a, _ = scanner.scan_all_protocols(targets, 33, "www.google.com")
        b, _ = scanner.scan_all_protocols(targets, 33, "www.google.com")
        for protocol in a:
            assert a[protocol].responders == b[protocol].responders

    def test_loss_independent_per_protocol(self, small_world):
        # a lost ICMP probe must not imply a lost TCP probe to the same
        # address: the four draws come from disjoint hash slices
        scanner = ZMapScanner(small_world, loss_rate=0.5, seed=2)
        targets = [
            address for address, record in small_world.hosts.items()
            if record.protocols & Protocol.ICMP
            and record.protocols & Protocol.TCP80
            and record.is_up(address, 33, small_world._seed)
        ][:200]
        if len(targets) < 40:
            pytest.skip("not enough dual-stack hosts")
        fused, _ = scanner.scan_all_protocols(targets, 33, "www.google.com")
        icmp = fused[Protocol.ICMP].responders
        tcp = fused[Protocol.TCP80].responders
        assert icmp != tcp  # perfectly correlated loss would make them equal
        assert icmp and tcp

    def test_response_mask_matches_responds(self, small_world):
        day = 60
        for address in list(small_world.hosts)[:300]:
            mask = small_world.response_mask(address, day)
            for protocol in (Protocol.ICMP, Protocol.TCP80, Protocol.TCP443,
                             Protocol.UDP443, Protocol.UDP53):
                assert bool(mask & protocol) == small_world.responds(
                    address, protocol, day
                ), (address, protocol)
