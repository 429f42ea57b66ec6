"""Frozen bit-walking reference of the prefix index.

``repro.net.trie.PrefixTrie`` keeps one dict per stored prefix length
and probes them longest first.  This module keeps the binary trie it
replaced, one bit per loop iteration, so differential tests can demand
identical answers from both: exact lookups, longest match, coverage,
covering prefixes and iteration order.  Nodes are small Python lists:
``[child0, child1, value]`` where ``value`` is ``_EMPTY`` for purely
structural nodes.
"""

from __future__ import annotations

from typing import Generic, Iterator, Optional, Tuple, TypeVar

from repro.net.prefix import IPv6Prefix

V = TypeVar("V")

_EMPTY = object()

_CHILD0 = 0
_CHILD1 = 1
_VALUE = 2


class ReferencePrefixTrie(Generic[V]):
    """Maps :class:`IPv6Prefix` keys to values with longest-prefix match.

    >>> trie = ReferencePrefixTrie()
    >>> trie[IPv6Prefix.from_string("2001:db8::/32")] = "doc"
    >>> trie[IPv6Prefix.from_string("2001:db8:1::/48")] = "doc-sub"
    >>> trie.longest_match(0x20010db8000100000000000000000001)
    (IPv6Prefix.from_string('2001:db8:1::/48'), 'doc-sub')
    >>> len(trie)
    2
    """

    __slots__ = ("_root", "_size")

    def __init__(self) -> None:
        self._root: list = [None, None, _EMPTY]
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def insert(self, prefix: IPv6Prefix, value: V) -> None:
        """Insert or replace the value stored at ``prefix``."""
        node = self._root
        bits = prefix.value
        for depth in range(prefix.length):
            bit = (bits >> (127 - depth)) & 1
            child = node[bit]
            if child is None:
                child = [None, None, _EMPTY]
                node[bit] = child
            node = child
        if node[_VALUE] is _EMPTY:
            self._size += 1
        node[_VALUE] = value

    def __setitem__(self, prefix: IPv6Prefix, value: V) -> None:
        self.insert(prefix, value)

    def get(self, prefix: IPv6Prefix, default: Optional[V] = None) -> Optional[V]:
        """Exact-match lookup."""
        node = self._find(prefix)
        if node is None or node[_VALUE] is _EMPTY:
            return default
        return node[_VALUE]

    def __getitem__(self, prefix: IPv6Prefix) -> V:
        node = self._find(prefix)
        if node is None or node[_VALUE] is _EMPTY:
            raise KeyError(str(prefix))
        return node[_VALUE]

    def __contains__(self, prefix: IPv6Prefix) -> bool:
        node = self._find(prefix)
        return node is not None and node[_VALUE] is not _EMPTY

    def _find(self, prefix: IPv6Prefix) -> Optional[list]:
        node = self._root
        bits = prefix.value
        for depth in range(prefix.length):
            node = node[(bits >> (127 - depth)) & 1]
            if node is None:
                return None
        return node

    def remove(self, prefix: IPv6Prefix) -> bool:
        """Remove an exact prefix; returns True if it was present.

        Structural nodes are left in place (removal is rare in our
        workloads), only the stored value is cleared.
        """
        node = self._find(prefix)
        if node is None or node[_VALUE] is _EMPTY:
            return False
        node[_VALUE] = _EMPTY
        self._size -= 1
        return True

    def longest_match(self, address: int) -> Optional[Tuple[IPv6Prefix, V]]:
        """The most specific stored prefix containing ``address``, if any."""
        node = self._root
        best: Optional[Tuple[int, V]] = None
        if node[_VALUE] is not _EMPTY:
            best = (0, node[_VALUE])
        for depth in range(128):
            node = node[(address >> (127 - depth)) & 1]
            if node is None:
                break
            if node[_VALUE] is not _EMPTY:
                best = (depth + 1, node[_VALUE])
        if best is None:
            return None
        length, value = best
        return IPv6Prefix(address, length), value

    def covers(self, address: int) -> bool:
        """True if any stored prefix contains ``address``."""
        node = self._root
        if node[_VALUE] is not _EMPTY:
            return True
        for depth in range(128):
            node = node[(address >> (127 - depth)) & 1]
            if node is None:
                return False
            if node[_VALUE] is not _EMPTY:
                return True
        return False

    def covering_prefix(self, prefix: IPv6Prefix) -> Optional[Tuple[IPv6Prefix, V]]:
        """The most specific stored prefix that covers ``prefix`` entirely."""
        node = self._root
        best: Optional[Tuple[int, V]] = None
        if node[_VALUE] is not _EMPTY:
            best = (0, node[_VALUE])
        bits = prefix.value
        for depth in range(prefix.length):
            node = node[(bits >> (127 - depth)) & 1]
            if node is None:
                break
            if node[_VALUE] is not _EMPTY:
                best = (depth + 1, node[_VALUE])
        if best is None:
            return None
        length, value = best
        return IPv6Prefix(bits, length), value

    def items(self) -> Iterator[Tuple[IPv6Prefix, V]]:
        """Iterate ``(prefix, value)`` pairs in address order."""
        stack: list[tuple[list, int, int]] = [(self._root, 0, 0)]
        while stack:
            node, value_bits, depth = stack.pop()
            if node[_VALUE] is not _EMPTY:
                yield IPv6Prefix(value_bits << (128 - depth) if depth else 0, depth), node[_VALUE]
            # Push child 1 first so child 0 (lower addresses) pops first.
            if node[_CHILD1] is not None:
                stack.append((node[_CHILD1], (value_bits << 1) | 1, depth + 1))
            if node[_CHILD0] is not None:
                stack.append((node[_CHILD0], value_bits << 1, depth + 1))

    def keys(self) -> Iterator[IPv6Prefix]:
        """Iterate stored prefixes in address order."""
        for prefix, _ in self.items():
            yield prefix

    def values(self) -> Iterator[V]:
        """Iterate stored values in address order of their prefixes."""
        for _, value in self.items():
            yield value

    def __iter__(self) -> Iterator[IPv6Prefix]:
        return self.keys()
