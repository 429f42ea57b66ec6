"""Property tests: big-int lane SIMD draws are bit-exact vs scalar mix64."""

from hypothesis import given, strategies as st

from repro._util import mix64
from repro.scan.vecmix import (
    LaneKit,
    bulk_mix64_xor,
    lane_kit,
    pack_lanes,
    survive16,
    survive64,
    unpack_lanes,
)

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
values_list = st.lists(u64, min_size=1, max_size=300)


@given(values_list)
def test_pack_unpack_roundtrip(values):
    kit = lane_kit(len(values))
    assert list(unpack_lanes(pack_lanes(values), kit)) == values


@given(values_list, u64)
def test_bulk_mix64_xor_matches_scalar(values, inner):
    kit = lane_kit(len(values))
    draws = unpack_lanes(bulk_mix64_xor(pack_lanes(values), inner, kit), kit)
    assert list(draws) == [mix64(value ^ inner) for value in values]


@given(values_list, st.integers(min_value=1, max_value=0xFFFF))
def test_survive16_matches_scalar(draws, threshold16):
    kit = lane_kit(len(draws))
    got = survive16(pack_lanes(draws), threshold16, kit)
    want = []
    for draw in draws:
        surviving = 0
        for field in range(4):
            if (draw >> (16 * field)) & 0xFFFF >= threshold16:
                surviving |= 1 << field
        want.append(surviving)
    assert list(got) == want


@given(values_list, st.integers(min_value=1, max_value=(1 << 64) - 1))
def test_survive64_matches_scalar(draws, threshold):
    kit = lane_kit(len(draws))
    got = survive64(pack_lanes(draws), threshold, kit)
    assert list(got) == [1 if draw >= threshold else 0 for draw in draws]


@given(values_list, u64, st.integers(min_value=1, max_value=0xFFFF))
def test_boundary_draws_round_trip_through_both_paths(values, inner, threshold16):
    """The composed pipeline (mix then compare) agrees with pure scalar."""
    kit = lane_kit(len(values))
    mixed = bulk_mix64_xor(pack_lanes(values), inner, kit)
    got = survive16(mixed, threshold16, kit)
    for index, value in enumerate(values):
        draw = mix64(value ^ inner)
        surviving = 0
        for field in range(4):
            if (draw >> (16 * field)) & 0xFFFF >= threshold16:
                surviving |= 1 << field
        assert got[index] == surviving


def test_per_day_inner_values_are_not_memoized():
    """Kits keep only threshold constants: one scan per day must not grow
    them by a lane-sized integer per distinct ``inner``."""
    values = [mix64(index) for index in range(64)]
    kit = LaneKit(len(values))  # fresh: the shared kits carry other tests' memos
    packed = pack_lanes(values)
    thresholds = (int(0.03 * (1 << 64)), int(0.25 * (1 << 64)))
    for day in range(1000):
        inner = mix64(day << 8)
        draws = bulk_mix64_xor(packed, inner, kit)
        assert list(unpack_lanes(draws, kit)) == [
            mix64(value ^ inner) for value in values
        ]
        for threshold in thresholds:
            survive64(draws, threshold, kit)
    assert len(kit._reps) <= len(thresholds)
