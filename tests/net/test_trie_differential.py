"""Differential test: the per-length prefix index against the frozen trie.

``PrefixTrie`` probes one dict per stored length; the frozen reference
(``tests/net/_trie_reference.py``) walks one bit at a time.  Over random
prefix sets with interleaved inserts and removes (including /0, /128,
nested prefixes and prefixes removed and inserted again) every query
must answer alike: exact lookups, ``in``, longest match (with and
without its prefix), coverage, covering prefixes, size and iteration
order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.address import MAX_ADDRESS
from repro.net.prefix import IPv6Prefix
from repro.net.trie import PrefixTrie
from tests.net._trie_reference import ReferencePrefixTrie

# a few network bases so that drawn prefixes nest and collide often
_BASES = (0, 0x20010DB8 << 96, (0x20010DB8 << 96) | (1 << 80), MAX_ADDRESS)
_LENGTHS = st.sampled_from([0, 1, 16, 32, 48, 63, 64, 68, 96, 127, 128]) | st.integers(0, 128)
_ADDRESSES = (
    st.tuples(st.sampled_from(_BASES), st.integers(0, (1 << 72) - 1)).map(
        lambda pair: pair[0] ^ pair[1])
    | st.integers(0, MAX_ADDRESS)
)
_PREFIXES = st.builds(IPv6Prefix, _ADDRESSES, _LENGTHS)


def _assert_same(index, reference, probes, addresses):
    assert len(index) == len(reference)
    assert bool(index) == bool(reference)
    assert list(index.items()) == list(reference.items())
    assert list(index) == list(reference)
    assert list(index.values()) == list(reference.values())
    for prefix in probes:
        assert (prefix in index) == (prefix in reference)
        assert index.get(prefix, "absent") == reference.get(prefix, "absent")
        assert index.covering_prefix(prefix) == reference.covering_prefix(prefix)
    for address in addresses:
        match = reference.longest_match(address)
        assert index.longest_match(address) == match
        assert index.longest_value(address) == (None if match is None else match[1])
        assert index.covers(address) == reference.covers(address)


@settings(deadline=None)
@given(data=st.data())
def test_index_matches_reference(data):
    index, reference = PrefixTrie(), ReferencePrefixTrie()
    stored = []
    for step in range(data.draw(st.integers(1, 40))):
        if stored and data.draw(st.booleans()):
            # remove a stored prefix (or one never stored)
            prefix = data.draw(st.sampled_from(stored) | _PREFIXES)
            assert index.remove(prefix) == reference.remove(prefix)
        else:
            # insert a new prefix, or re-insert/replace a known one
            prefix = data.draw(_PREFIXES | st.sampled_from(stored or [IPv6Prefix(0, 0)]))
            index[prefix] = reference[prefix] = step
            stored.append(prefix)
    probes = stored + data.draw(st.lists(_PREFIXES, max_size=10))
    addresses = [prefix.value for prefix in stored]
    addresses += [prefix.last for prefix in stored]
    addresses += data.draw(st.lists(_ADDRESSES, max_size=20))
    _assert_same(index, reference, probes, addresses)
