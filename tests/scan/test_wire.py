"""Property tests: the packed chunk format's bitmask rows round-trip bit-exactly."""

from hypothesis import given, strategies as st

from repro.scan import wire


@given(st.lists(st.booleans(), max_size=200))
def test_bitmask_roundtrip(flags):
    mask = wire.pack_bitmask(flags)
    indices = list(wire.iter_bitmask(mask, len(flags)))
    assert indices == [i for i, flag in enumerate(flags) if flag]
    assert indices == sorted(indices)
