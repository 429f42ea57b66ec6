"""Property: ``SimInternet.probe_masks`` against a per-target reference.

``probe_masks`` resolves the covering region once per run of targets in
one /64, except in a /64 that holds a region longer than /64, where
each target takes its own longest match.  Its masks must equal
``response_mask`` asked target by target of an independently built
world (its own region cache), on target lists that mix runs in
long-region /64s (inside and outside the long region), in regions that
are not active yet, on hosts and their /64 neighbours, on ping-answering
CPE and on empty space, with /64s revisited out of order.
"""

from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._util import mix64
from repro.simnet import build_internet, small_config

_M64 = (1 << 64) - 1
_DAYS = [0, 40, 203, 700, 1311, 1400]


@pytest.fixture(scope="module")
def reference_world():
    return build_internet(small_config())


def _run(world, kind: int, count: int, salt: int, day: int) -> List[int]:
    """``count`` targets in one /64, of one kind."""
    draws = [mix64(salt * 131 + index) for index in range(count)]
    if kind == 0:  # a /64 holding a longer region: inside and outside it
        regions = [r for r in world.regions if r.prefix.length > 64]
        region = regions[salt % len(regions)]
        span = region.prefix.num_addresses - 1
        return [
            region.prefix.value | (draw & span) if draw & 1
            else (region.prefix.value >> 64 << 64) | (draw & _M64)
            for draw in draws
        ]
    if kind == 1:  # inside a region of at most /64, active or not yet
        regions = [r for r in world.regions if r.prefix.length <= 64]
        region = regions[salt % len(regions)]
        slash64s = 1 << (64 - region.prefix.length)
        base = region.prefix.value | (mix64(salt) % slash64s) << 64
        return [base | (draw & _M64) for draw in draws]
    if kind == 2:  # hosts and their /64 neighbours
        hosts = sorted(world.hosts)
        host = hosts[salt % len(hosts)]
        return [host if draw & 1 else host ^ (draw & 0xFFFF) for draw in draws]
    if kind == 3:  # ping-answering CPE of the day
        cpe = sorted(
            address for fleet in world.topology.fleets
            for address in fleet.responsive_addresses(day)
        )
        address = cpe[salt % len(cpe)]
        return [address if draw & 1 else address ^ (draw & 0xFF) for draw in draws]
    base = mix64(salt) << 64  # empty space, or whatever lies there
    return [base | (draw & _M64) for draw in draws]


@given(
    day=st.sampled_from(_DAYS),
    runs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),
            st.integers(min_value=1, max_value=16),
            st.integers(min_value=0, max_value=1 << 16),
        ),
        max_size=24,
    ),
    revisit=st.booleans(),
)
@settings(
    max_examples=max(20, settings.default.max_examples), deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_per_slash64_masks_match_per_target(
    small_world, reference_world, day, runs, revisit
):
    targets: List[int] = []
    for kind, count, salt in runs:
        targets += _run(small_world, kind, count, salt, day)
    if revisit:
        # the same /64s again, interleaved with each other
        targets += targets[::-3]
    masks = small_world.probe_masks(targets, day)
    assert list(masks) == [
        int(reference_world.response_mask(target, day)) for target in targets
    ]


def test_long_region_slash64_resolves_per_target(small_world, reference_world):
    """A /64 holding a /96 or /112 region answers inside the region and
    not beside it, within one run of targets."""
    for region in small_world.regions:
        if region.prefix.length <= 64:
            continue
        inside = region.prefix.value | 5
        beside = region.prefix.value ^ (1 << (128 - region.prefix.length))
        masks = small_world.probe_masks([inside, beside, inside], 0)
        assert masks[0] == masks[2] == int(region.protocols)
        assert masks[1] == int(reference_world.response_mask(beside, 0))
        assert masks[1] != masks[0]
