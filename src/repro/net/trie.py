"""An index of IPv6 prefixes with longest-prefix matching.

Used as the routing table backbone (:mod:`repro.asn.rib`), as the aliased
prefix store in the hitlist pipeline and as a generic "is this address
covered?" structure.  Stored prefixes use few distinct lengths (the RIB
a dozen, the alias store the announced lengths, /64 and the nibble steps
beyond it), so the index keeps one dict per stored length, keyed by
``network >> (128 - length)``, and answers a lookup by probing those
dicts longest first: one hash probe per stored length instead of one
loop iteration per address bit.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Optional, Set, Tuple, TypeVar

from repro.net.prefix import IPv6Prefix

V = TypeVar("V")

_EMPTY = object()


class PrefixTrie(Generic[V]):
    """Maps :class:`IPv6Prefix` keys to values with longest-prefix match.

    >>> trie = PrefixTrie()
    >>> trie[IPv6Prefix.from_string("2001:db8::/32")] = "doc"
    >>> trie[IPv6Prefix.from_string("2001:db8:1::/48")] = "doc-sub"
    >>> trie.longest_match(0x20010db8000100000000000000000001)
    (IPv6Prefix.from_string('2001:db8:1::/48'), 'doc-sub')
    >>> len(trie)
    2
    """

    __slots__ = ("_tables", "_probes", "_size")

    def __init__(self) -> None:
        #: prefix length -> {network >> (128 - length): value}
        self._tables: Dict[int, Dict[int, V]] = {}
        #: (length, shift, table) per non-empty table, longest first
        self._probes: List[Tuple[int, int, Dict[int, V]]] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def _reindex(self) -> None:
        self._probes = [
            (length, 128 - length, self._tables[length])
            for length in sorted(self._tables, reverse=True)
        ]

    def insert(self, prefix: IPv6Prefix, value: V) -> None:
        """Insert or replace the value stored at ``prefix``."""
        length = prefix.length
        table = self._tables.get(length)
        if table is None:
            table = self._tables[length] = {}
            self._reindex()
        key = prefix.value >> (128 - length)
        if key not in table:
            self._size += 1
        table[key] = value

    def __setitem__(self, prefix: IPv6Prefix, value: V) -> None:
        self.insert(prefix, value)

    def get(self, prefix: IPv6Prefix, default: Optional[V] = None) -> Optional[V]:
        """Exact-match lookup."""
        table = self._tables.get(prefix.length)
        if table is None:
            return default
        return table.get(prefix.value >> (128 - prefix.length), default)

    def __getitem__(self, prefix: IPv6Prefix) -> V:
        value = self.get(prefix, _EMPTY)
        if value is _EMPTY:
            raise KeyError(str(prefix))
        return value

    def __contains__(self, prefix: IPv6Prefix) -> bool:
        return self.get(prefix, _EMPTY) is not _EMPTY

    def remove(self, prefix: IPv6Prefix) -> bool:
        """Remove an exact prefix; returns True if it was present."""
        length = prefix.length
        table = self._tables.get(length)
        if table is None or table.pop(prefix.value >> (128 - length), _EMPTY) is _EMPTY:
            return False
        self._size -= 1
        if not table:
            del self._tables[length]
            self._reindex()
        return True

    def longest_match(self, address: int) -> Optional[Tuple[IPv6Prefix, V]]:
        """The most specific stored prefix containing ``address``, if any."""
        for length, shift, table in self._probes:
            value = table.get(address >> shift, _EMPTY)
            if value is not _EMPTY:
                return IPv6Prefix(address, length), value
        return None

    def longest_value(self, address: int) -> Optional[V]:
        """The value of :meth:`longest_match`, without building its prefix."""
        for _, shift, table in self._probes:
            value = table.get(address >> shift, _EMPTY)
            if value is not _EMPTY:
                return value
        return None

    def covers(self, address: int) -> bool:
        """True if any stored prefix contains ``address``."""
        for _, shift, table in self._probes:
            if address >> shift in table:
                return True
        return False

    def covering_prefix(self, prefix: IPv6Prefix) -> Optional[Tuple[IPv6Prefix, V]]:
        """The most specific stored prefix that covers ``prefix`` entirely."""
        bits = prefix.value
        for length, shift, table in self._probes:
            if length <= prefix.length:
                value = table.get(bits >> shift, _EMPTY)
                if value is not _EMPTY:
                    return IPv6Prefix(bits, length), value
        return None

    def covered(self, networks: List[int], length: int) -> Set[int]:
        """The ``/length`` networks that a shorter stored prefix covers
        and that are not stored themselves.

        :meth:`covering_prefix` per prefix names exactly these (its most
        specific covering entry is another prefix); this asks the
        per-length dicts on ints, for a batch of equal-length network
        values with their host bits zeroed.
        """
        covered: Set[int] = set()
        for stored, shift, table in self._probes:
            if stored < length:
                covered.update(
                    network for network in networks if network >> shift in table
                )
        own = self._tables.get(length)
        if covered and own:
            shift = 128 - length
            covered = {network for network in covered if network >> shift not in own}
        return covered

    def items(self) -> Iterator[Tuple[IPv6Prefix, V]]:
        """Iterate ``(prefix, value)`` pairs in address order.

        Address order sorts by network value, and a shorter prefix comes
        before a longer one on the same network.
        """
        entries = sorted(
            ((key << shift, length, value)
             for length, shift, table in self._probes
             for key, value in table.items()),
            key=lambda entry: (entry[0], entry[1]),
        )
        for network, length, value in entries:
            yield IPv6Prefix(network, length), value

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
