"""Tests for the GFW filter state machine and the impact report."""

from repro.asn.registry import AsInfo, AsRegistry
from repro.asn.rib import RibSnapshot
from repro.gfw.filter import GfwFilter
from repro.gfw.impact import impact_report
from repro.net.prefix import parse_prefix
from repro.net.teredo import encode_teredo
from tests.gfw._tables import NOERROR, NONE, scan_result

TEREDO = encode_teredo(1, 0x1F0D5801, 1)


def udp53(day, rows):
    """A Teredo-era scan: ``rows`` maps responder -> (forged, variant)."""
    return scan_result(day, rows, teredo=True)


class TestGfwFilter:
    def test_clean_scan_splits(self):
        f = GfwFilter()
        cleaning = f.clean_scan(udp53(1, {10: ((TEREDO, TEREDO), NONE), 20: ((), NOERROR)}))
        assert cleaning.injected_responders == {10}
        assert cleaning.clean_responders == {20}
        assert f.ever_injected == {10}

    def test_historical_filter_excludes_other_protocol_responders(self):
        f = GfwFilter()
        f.clean_scan(udp53(1, {10: ((TEREDO,), NONE), 11: ((TEREDO,), NONE)}))
        f.note_other_protocol_responders({11})
        assert f.historical_filter_set() == {10}

    def test_accumulates_across_scans(self):
        f = GfwFilter()
        f.clean_scan(udp53(1, {10: ((TEREDO,), NONE)}))
        f.clean_scan(udp53(2, {12: ((TEREDO,), NONE)}))
        assert f.ever_injected == {10, 12}
        assert f.impacted_count == 2

    def test_evidence_counts(self):
        f = GfwFilter()
        cleaning = f.clean_scan(udp53(1, {10: ((TEREDO, TEREDO), NONE)}))
        assert sum(cleaning.evidence_counts.values()) >= 2


class TestImpactReport:
    def _setup(self):
        registry = AsRegistry()
        registry.add(AsInfo(asn=4134, name="China Telecom Backbone", country="CN"))
        registry.add(AsInfo(asn=3320, name="DTAG", country="DE"))
        rib = RibSnapshot()
        rib.announce(parse_prefix("2400::/32"), 4134)
        rib.announce(parse_prefix("2a00::/32"), 3320)
        return registry, rib

    def test_rows_sorted_with_cdf(self):
        registry, rib = self._setup()
        cn = parse_prefix("2400::/32").value
        de = parse_prefix("2a00::/32").value
        impacted = [cn | i for i in range(9)] + [de | 1]
        report = impact_report(impacted, rib, registry)
        assert report.total_addresses == 10
        assert report.total_asns == 2
        top = report.rows[0]
        assert top.asn == 4134
        assert top.share_percent == 90.0
        assert top.is_chinese
        assert report.rows[1].cdf_percent == 100.0

    def test_chinese_share_of_top(self):
        registry, rib = self._setup()
        cn = parse_prefix("2400::/32").value
        report = impact_report([cn | 1], rib, registry)
        assert report.chinese_share_of_top(1) == 1.0

    def test_unrouted_addresses_counted_in_total_only(self):
        registry, rib = self._setup()
        report = impact_report([1, 2], rib, registry)
        assert report.total_addresses == 2
        assert report.total_asns == 0
        assert report.chinese_share_of_top() == 0.0
