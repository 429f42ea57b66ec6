"""Property tests: trie queries vs. brute-force reference implementations."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.address import MAX_ADDRESS
from repro.net.prefix import IPv6Prefix
from repro.net.trie import PrefixTrie

prefix_strategy = st.builds(
    IPv6Prefix,
    st.integers(min_value=0, max_value=MAX_ADDRESS),
    st.integers(min_value=0, max_value=128),
)


@settings(max_examples=40, deadline=None)
@given(
    st.sets(prefix_strategy, min_size=1, max_size=25),
    prefix_strategy,
)
def test_covering_prefix_matches_bruteforce(stored, probe):
    trie = PrefixTrie()
    for prefix in stored:
        trie[prefix] = str(prefix)
    covering = [p for p in stored if p.contains_prefix(probe)]
    result = trie.covering_prefix(probe)
    if not covering:
        assert result is None
    else:
        best = max(covering, key=lambda p: p.length)
        assert result is not None
        assert result[0] == best


@settings(max_examples=40, deadline=None)
@given(
    st.sets(prefix_strategy, min_size=1, max_size=25),
    st.lists(st.integers(min_value=0, max_value=MAX_ADDRESS), max_size=12),
    st.integers(min_value=0, max_value=128),
)
def test_covered_matches_covering_prefix(stored, addresses, length):
    """``covered`` names the networks whose most specific covering
    entry is another, shorter prefix."""
    trie = PrefixTrie()
    for prefix in stored:
        trie[prefix] = True
    # some networks are stored prefixes themselves, or nest inside them
    probes = [IPv6Prefix(address, length) for address in addresses]
    probes += [IPv6Prefix(p.value, length) for p in stored if p.length <= length]
    networks = [probe.value for probe in probes]
    expected = {
        probe.value for probe in probes
        if (hit := trie.covering_prefix(probe)) is not None and hit[0] != probe
    }
    assert trie.covered(networks, length) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.sets(prefix_strategy, min_size=1, max_size=25),
    st.integers(min_value=0, max_value=MAX_ADDRESS),
)
def test_covers_matches_bruteforce(stored, address):
    trie = PrefixTrie()
    for prefix in stored:
        trie[prefix] = True
    assert trie.covers(address) == any(p.contains(address) for p in stored)


@settings(max_examples=30, deadline=None)
@given(st.sets(prefix_strategy, max_size=30))
def test_removal_restores_absence(stored):
    trie = PrefixTrie()
    for prefix in stored:
        trie[prefix] = True
    for prefix in stored:
        assert trie.remove(prefix)
    assert len(trie) == 0
    for prefix in stored:
        assert prefix not in trie
        assert trie.longest_match(prefix.value) is None


@settings(max_examples=30, deadline=None)
@given(st.lists(prefix_strategy, min_size=2, max_size=20))
def test_insert_order_irrelevant(prefixes):
    forward = PrefixTrie()
    backward = PrefixTrie()
    for prefix in prefixes:
        forward[prefix] = prefix.length
    for prefix in reversed(prefixes):
        backward[prefix] = prefix.length
    assert dict(forward.items()) == dict(backward.items())
