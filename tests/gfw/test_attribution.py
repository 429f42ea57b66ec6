"""Tests for forged-answer owner attribution (Sec. 4.2)."""

from array import array
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util import mix64
from repro.gfw.detector import Ipv4Whois
from repro.gfw.filter import GfwFilter, _teredo_blocks
from repro.net.teredo import encode_teredo
from tests.gfw._tables import NOERROR, NONE, scan_result

FACEBOOK_IPV4 = 0x1F0D5801  # inside 31.13.88.0/21
MICROSOFT_IPV4 = 0x0D6B4001  # inside 13.107.64.0/18


def udp53_with(day, target, forged, teredo=False):
    """One responder whose only responses are the ``forged`` answers."""
    return scan_result(day, {target: (forged, NONE)}, teredo=teredo)


class TestAttribution:
    def test_a_record_owner_attributed(self):
        f = GfwFilter()
        f.clean_scan(udp53_with(1, 1, [FACEBOOK_IPV4]))
        assert f.forged_answer_owners == {32934: 1}

    def test_teredo_embedded_owner_attributed(self):
        f = GfwFilter()
        teredo = encode_teredo(0x41EA9E00, MICROSOFT_IPV4, 1234)
        f.clean_scan(udp53_with(1, 1, [teredo], teredo=True))
        assert f.forged_answer_owners == {8075: 1}

    def test_accumulates_across_scans(self):
        f = GfwFilter()
        f.clean_scan(udp53_with(1, 1, [FACEBOOK_IPV4, FACEBOOK_IPV4]))
        f.clean_scan(udp53_with(2, 1, [FACEBOOK_IPV4]))
        assert f.forged_answer_owners[32934] == 3

    def test_genuine_answers_not_attributed(self):
        f = GfwFilter()
        f.clean_scan(scan_result(1, {1: ((), NOERROR)}))
        assert f.forged_answer_owners == {}

    def test_end_to_end_attribution(self, small_world):
        """A real injected scan attributes to the pool's owner orgs."""
        from repro.scan.zmap import ZMapScanner

        gfw = small_world.gfw
        day = gfw.eras[-1].start_day
        cn_asn = next(iter(gfw._boundary.inside_asns))
        prefix = small_world.routing.base.prefixes_of(cn_asn)[0]
        targets = [prefix.value | (0xD000 + i) for i in range(50)]
        scanner = ZMapScanner(small_world, loss_rate=0.0)
        _results, result = scanner.scan_all_protocols(targets, day, "www.google.com")
        f = GfwFilter()
        f.clean_scan(result)
        owners = set(f.forged_answer_owners)
        assert owners <= {32934, 8075, 19679}
        assert owners, "injected answers must map to unrelated operators"


#: aligned, disjoint ranges of several lengths, one owner holding two
WHOIS = Ipv4Whois(ranges=(
    (0x1F0D5800, 21, 32934),
    (0x0D6B4000, 18, 8075),
    (0xA27D0000, 16, 19679),
    (0xA27E0000, 24, 8075),
    (0x08080800, 29, 15169),
))


def _scalar_owners(whois, ipv4s, times):
    """Per IPv4 in first-seen order, its owner by a walk of the ranges."""
    owners = {}
    for ipv4, count in Counter(ipv4s).items():
        for base, length, owner in whois.ranges:
            if base <= ipv4 < base + (1 << (32 - length)):
                owners[owner] = owners.get(owner, 0) + count * times
                break
    return list(owners.items())


_ipv4s = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from([base for base, _, _ in WHOIS.ranges]),
            st.integers(min_value=0, max_value=(1 << 17) - 1),
        ).map(lambda pair: pair[0] + pair[1]),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
    ),
    max_size=60,
)


class TestOwnerBlocks:
    """Owners resolve once per whois block; totals and first-seen order
    match a per-IPv4 walk of the ranges."""

    @given(scans=st.lists(_ipv4s, max_size=4), times=st.integers(1, 3))
    def test_attribute_matches_per_ipv4_walk(self, scans, times):
        f = GfwFilter(whois=WHOIS)
        expected = {}
        for ipv4s in scans:
            f._attribute(ipv4s, times)
            for owner, count in _scalar_owners(WHOIS, ipv4s, times):
                expected[owner] = expected.get(owner, 0) + count
            assert list(f.forged_answer_owners.items()) == list(expected.items())

    @given(ipv4s=_ipv4s)
    def test_teredo_blocks_match_client_ipv4s(self, ipv4s):
        lows = array("Q", [
            (mix64(index) & 0xFFFFFFFF) << 32 | ipv4 ^ 0xFFFFFFFF
            for index, ipv4 in enumerate(ipv4s)
        ])
        f = GfwFilter(whois=WHOIS)
        f._attribute_blocks(_teredo_blocks(lows, WHOIS.block_shift))
        assert list(f.forged_answer_owners.items()) == _scalar_owners(WHOIS, ipv4s, 1)

    def test_block_shift_is_the_finest_range(self):
        assert WHOIS.block_shift == 3
        assert Ipv4Whois(ranges=()).block_shift == 32

    def test_owner_of_one_probe_per_length(self):
        assert WHOIS.owner_of(0xA27E00FF) == 8075
        assert WHOIS.owner_of(0xA27F0000) is None
        assert WHOIS.owner_of(0x08080807) == 15169
        assert WHOIS.owner_of(0x08080808) is None

    def test_misaligned_range_rejected(self):
        with pytest.raises(ValueError, match="host bits"):
            Ipv4Whois(ranges=((0x1F0D5801, 21, 32934),))

    def test_overlapping_ranges_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            Ipv4Whois(ranges=((0xA27D0000, 16, 19679), (0xA27D8000, 17, 8075)))
