"""Regression tests: nested candidates inside detected aliases are skipped."""

import pytest

from repro.hitlist.apd import AliasedPrefixDetection
from repro.net.prefix import IPv6Prefix
from repro.scan.zmap import ZMapScanner


@pytest.fixture
def apd(small_world):
    return AliasedPrefixDetection(ZMapScanner(small_world, loss_rate=0.0))


def _cf_region(small_world):
    return next(
        r for r in small_world.regions if r.asn == 13335 and r.active_from == 0
    )


class TestNestedSkipping:
    def test_nested_slash64_not_double_counted(self, small_world, apd):
        region = _cf_region(small_world)
        # feed input addresses inside the /48 region: they create /64
        # candidates, but the BGP-level /48 wins and the /64s are skipped
        members = [region.prefix.value | (i << 64) | 1 for i in range(5)]
        slash64_members = {m >> 64: [m] for m in members}
        apd.run(0, members, slash64_members, small_world.routing.base)
        detected = {a.prefix for a in apd.aliased_prefixes}
        assert region.prefix in detected
        nested = [p for p in detected if p.length == 64
                  and region.prefix.contains_prefix(p)]
        assert nested == []

    def test_dense_members_yield_one_level(self, small_world, apd):
        # a longer-than-/64 region seeded with dense members must be
        # detected exactly once, not at every 4-bit level above it
        long_region = next(
            (r for r in small_world.regions
             if r.prefix.length > 64 and r.active_from == 0), None
        )
        if long_region is None:
            pytest.skip("no active long region in this world")
        members = sorted(
            m for m in small_world.ground_truth.get("dense_region_members")
            if long_region.prefix.contains(m)
        )
        if len(members) < 100:
            pytest.skip("not enough dense members")
        slash64_members = {}
        for member in members:
            slash64_members.setdefault(member >> 64, []).append(member)
        apd.run(0, members, slash64_members, None)
        detected_inside = [
            a.prefix for a in apd.aliased_prefixes
            if a.prefix.length > 64
            and (long_region.prefix.contains_prefix(a.prefix)
                 or a.prefix.contains_prefix(long_region.prefix))
        ]
        assert len(detected_inside) == 1

    def test_reconfirmation_of_alias_itself_still_runs(self, small_world, apd):
        region = _cf_region(small_world)
        apd.run(0, [], None, small_world.routing.base)
        assert region.prefix in {a.prefix for a in apd.aliased_prefixes}
        # after the reconfirm interval, the alias itself is re-tested
        before = apd.candidate(region.prefix).last_tested
        apd.run(40, [], None, small_world.routing.base)
        assert apd.candidate(region.prefix).last_tested > before
