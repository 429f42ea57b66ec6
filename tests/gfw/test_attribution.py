"""Tests for forged-answer owner attribution (Sec. 4.2)."""

from repro.gfw.filter import GfwFilter
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
