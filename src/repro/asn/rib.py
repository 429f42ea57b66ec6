"""BGP routing table (RIB) snapshots and an announcement timeline.

The hitlist pipeline needs two queries the paper performs against RIPE RIS
data: origin-AS resolution for arbitrary addresses (longest prefix match)
and the set of announced prefixes per AS (the APD seeds its shortest
candidate level from announced prefixes; Figure 6 relates aliased space to
announced space).
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.net.prefix import IPv6Prefix
from repro.net.trie import PrefixTrie


class RibSnapshot:
    """An immutable-after-build set of ``prefix -> origin AS`` announcements."""

    def __init__(self) -> None:
        self._trie: PrefixTrie[int] = PrefixTrie()
        self._by_asn: Dict[int, List[IPv6Prefix]] = defaultdict(list)

    def announce(self, prefix: IPv6Prefix, asn: int) -> None:
        """Add an announcement; a more specific wins LPM automatically."""
        existing = self._trie.get(prefix)
        if existing is not None:
            if existing == asn:
                return
            raise ValueError(f"{prefix} already announced by AS{existing}")
        self._trie[prefix] = asn
        self._by_asn[asn].append(prefix)

    def origin_as(self, address: int) -> Optional[int]:
        """Longest-prefix-match origin AS for an address, if covered."""
        return self._trie.longest_value(address)

    def matching_prefix(self, address: int) -> Optional[IPv6Prefix]:
        """The most specific announced prefix covering ``address``."""
        match = self._trie.longest_match(address)
        return None if match is None else match[0]

    def prefixes_of(self, asn: int) -> Tuple[IPv6Prefix, ...]:
        """All prefixes announced by an AS (announcement order)."""
        return tuple(self._by_asn.get(asn, ()))

    def announced_address_count(self, asn: int) -> int:
        """Total number of IPv6 addresses announced by an AS.

        Announcements within one AS are treated as disjoint, which the
        scenario builder guarantees.
        """
        return sum(prefix.num_addresses for prefix in self._by_asn.get(asn, ()))

    def announcing_asns(self) -> Set[int]:
        """All ASes with at least one announcement."""
        return set(self._by_asn)

    @property
    def prefix_count(self) -> int:
        """Number of announced prefixes."""
        return len(self._trie)

    def prefixes(self) -> Iterator[Tuple[IPv6Prefix, int]]:
        """Iterate ``(prefix, origin_asn)`` in address order."""
        return self._trie.items()

    def covers(self, address: int) -> bool:
        """True when some announcement covers the address."""
        return self._trie.covers(address)


class RoutingHistory:
    """A base RIB plus dated announcement events, queryable per day.

    Used to replay the Trafficforce event: AS212144 started announcing a
    large number of IPv6-only prefixes in February 2022, inflating the
    aliased prefix count from 42.8 k to 111.5 k (Sec. 5 of the paper).
    """

    def __init__(self, base: RibSnapshot) -> None:
        self._base = base
        self._events: List[Tuple[int, IPv6Prefix, int]] = []
        self._event_days: List[int] = []
        self._sorted = True
        self._cache: Dict[int, RibSnapshot] = {}

    def add_event(self, day: int, prefix: IPv6Prefix, asn: int) -> None:
        """Record that ``asn`` starts announcing ``prefix`` on ``day``."""
        self._events.append((day, prefix, asn))
        self._sorted = False
        self._cache.clear()

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._events.sort(key=lambda event: event[0])
            self._event_days = [event[0] for event in self._events]
            self._sorted = True

    def snapshot_at(self, day: int) -> RibSnapshot:
        """The routing table as of ``day`` (events at <= day applied)."""
        self._ensure_sorted()
        if not self._events:
            return self._base
        if not self._event_days:
            self._event_days = [event[0] for event in self._events]
        cutoff = bisect.bisect_right(self._event_days, day)
        if cutoff == 0:
            return self._base
        if cutoff in self._cache:
            return self._cache[cutoff]
        snapshot = RibSnapshot()
        for prefix, asn in self._base.prefixes():
            snapshot.announce(prefix, asn)
        for event_day, prefix, asn in self._events[:cutoff]:
            del event_day
            snapshot.announce(prefix, asn)
        self._cache[cutoff] = snapshot
        return snapshot

    @property
    def base(self) -> RibSnapshot:
        """The routing table before any dated event."""
        return self._base
