"""Tests for fully-responsive-prefix representatives (Sec. 5.3 suggestion)."""

import pytest

from repro.hitlist.apd import AliasedPrefixDetection
from repro.hitlist.representatives import alias_representatives
from repro.protocols import Protocol
from repro.scan.zmap import ZMapScanner


@pytest.fixture
def apd_with_aliases(small_world):
    apd = AliasedPrefixDetection(ZMapScanner(small_world, loss_rate=0.0))
    apd.run(0, [], None, small_world.routing.base)
    assert apd.aliased_count > 0
    return apd


class TestRepresentatives:
    def test_one_per_prefix_inside_prefix(self, apd_with_aliases):
        chosen = alias_representatives(apd_with_aliases)
        assert len(chosen) == apd_with_aliases.aliased_count
        for prefix, address in chosen.items():
            assert prefix.contains(address)

    def test_known_addresses_preferred(self, apd_with_aliases):
        alias = apd_with_aliases.aliased_prefixes[0]
        known = alias.prefix.value | 0x1234
        chosen = alias_representatives(apd_with_aliases, known_addresses=[known])
        assert chosen[alias.prefix] == known

    def test_deterministic_fallback(self, apd_with_aliases):
        a = alias_representatives(apd_with_aliases, nonce=7)
        b = alias_representatives(apd_with_aliases, nonce=7)
        assert a == b
        c = alias_representatives(apd_with_aliases, nonce=8)
        assert a != c

    def test_representatives_are_responsive(self, small_world, apd_with_aliases):
        # the point of the suggestion: these targets answer probes even
        # though their prefixes are excluded from the regular scan
        chosen = alias_representatives(apd_with_aliases)
        scanner = ZMapScanner(small_world, loss_rate=0.0)
        results, _udp53 = scanner.scan_all_protocols(
            list(chosen.values()), 0, "www.google.com"
        )
        assert len(results[Protocol.ICMP].responders) > len(chosen) * 0.5

    def test_unknown_addresses_ignored(self, apd_with_aliases):
        chosen = alias_representatives(
            apd_with_aliases, known_addresses=[0x3FFF << 112]
        )
        assert len(chosen) == apd_with_aliases.aliased_count
