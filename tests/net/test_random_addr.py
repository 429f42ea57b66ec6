"""Tests for APD-style pseudo-random address generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.address import MAX_ADDRESS
from repro.net.prefix import IPv6Prefix, parse_prefix
from repro.net.random_addr import pseudo_random_address, spread_addresses


class TestPseudoRandomAddress:
    def test_deterministic(self):
        p = parse_prefix("2001:db8::/32")
        assert pseudo_random_address(p, 3) == pseudo_random_address(p, 3)

    def test_nonce_changes_address(self):
        p = parse_prefix("2001:db8::/32")
        assert pseudo_random_address(p, 1) != pseudo_random_address(p, 2)

    def test_full_length(self):
        p = IPv6Prefix(42, 128)
        assert pseudo_random_address(p) == 42

    @given(
        st.integers(min_value=0, max_value=MAX_ADDRESS),
        st.integers(min_value=0, max_value=128),
        st.integers(min_value=0, max_value=10),
    )
    @settings(max_examples=60)
    def test_always_inside_prefix(self, value, length, nonce):
        p = IPv6Prefix(value, length)
        assert p.contains(pseudo_random_address(p, nonce))


class TestSpreadAddresses:
    def test_sixteen_distinct_subprefixes(self):
        p = parse_prefix("2001:db8::/32")
        probes = spread_addresses(p)
        assert len(probes) == 16
        sub_indices = {(a >> (128 - 36)) & 0xF for a in probes}
        assert sub_indices == set(range(16))

    def test_all_inside_prefix(self):
        p = parse_prefix("2001:db8::/32")
        assert all(p.contains(a) for a in spread_addresses(p))

    def test_deterministic_per_nonce(self):
        p = parse_prefix("2001:db8::/64")
        assert spread_addresses(p, nonce=5) == spread_addresses(p, nonce=5)
        assert spread_addresses(p, nonce=5) != spread_addresses(p, nonce=6)

    def test_near_host_length_clamps(self):
        # /126 has only 4 addresses; asking for 16 probes yields the 4 hosts
        p = parse_prefix("2001:db8::/126")
        probes = spread_addresses(p, 16)
        assert sorted(probes) == [p.value, p.value + 1, p.value + 2, p.value + 3]

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            spread_addresses(parse_prefix("::/64"), 10)
        with pytest.raises(ValueError):
            spread_addresses(parse_prefix("::/64"), 0)

    def test_other_counts(self):
        p = parse_prefix("2001:db8::/32")
        assert len(spread_addresses(p, 4)) == 4
        assert len(spread_addresses(p, 1)) == 1


def _per_subprefix(prefix, count, nonce):
    """The definition: one pseudo_random_address per next-level subprefix."""
    new_length = min(prefix.length + (count - 1).bit_length(), 128)
    return [
        pseudo_random_address(prefix.nth_subprefix(new_length, index), nonce)
        for index in range(1 << (new_length - prefix.length))
    ]


@given(
    st.integers(min_value=0, max_value=MAX_ADDRESS),
    st.integers(min_value=0, max_value=128),
    st.sampled_from([1, 4, 16]),
    st.integers(min_value=0, max_value=(1 << 40)),
)
@settings(max_examples=400)
def test_spread_addresses_matches_per_subprefix_formula(value, length, count, nonce):
    """Every shape, nibble-aligned fast path or not, hashes the same inputs."""
    prefix = IPv6Prefix(value, length)
    assert spread_addresses(prefix, count, nonce) == _per_subprefix(prefix, count, nonce)


@pytest.mark.parametrize("length", range(0, 129))
@pytest.mark.parametrize("count", [1, 4, 16])
def test_spread_addresses_every_length(length, count):
    prefix = IPv6Prefix(MAX_ADDRESS, length)
    nonce = (length << 4) | count
    assert spread_addresses(prefix, count, nonce) == _per_subprefix(prefix, count, nonce)
