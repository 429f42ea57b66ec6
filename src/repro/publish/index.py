"""Prefix/protocol/ASN query index over a publication snapshot.

Downstream users rarely want the whole hitlist: a typical question is
"responsive addresses under 2001:db8::/32", "QUIC responders in AS 64500"
or "is this address covered by an aliased prefix?".  The index answers
those against one snapshot:

* per-protocol responsive sets as sorted integer arrays, so a prefix
  containment query is one :mod:`bisect` range scan;
* aliased prefixes in a :class:`repro.net.trie.PrefixTrie`, so coverage
  and most-specific-covering-prefix queries are longest-prefix walks;
* an optional origin-AS map (the store's ``origins`` artifact, or a
  live :class:`repro.asn.rib.RibSnapshot`) grouping addresses per ASN.
"""

from __future__ import annotations

import io
from bisect import bisect_left, bisect_right
from typing import Dict, List, Mapping, Optional, Tuple

from repro.hitlist.export import read_address_list, read_aliased_prefixes
from repro.net.address import parse_ipv6
from repro.net.prefix import IPv6Prefix
from repro.net.trie import PrefixTrie
from repro.publish.store import (
    ARTIFACT_NAMES,
    PROTOCOL_ARTIFACTS,
    PublishError,
    SnapshotStore,
)

#: Artifact names that are address lists and therefore queryable slices.
ADDRESS_SLICES: Tuple[str, ...] = tuple(
    name for name in ARTIFACT_NAMES if name not in ("aliased", "origins")
)


class QueryIndex:
    """Immutable-after-build query structure for one snapshot."""

    def __init__(
        self,
        snapshot_id: str,
        scan_day: int,
        slices: Mapping[str, List[int]],
        aliased: List[IPv6Prefix],
        origins: Optional[Mapping[int, int]] = None,
    ) -> None:
        self.snapshot_id = snapshot_id
        self.scan_day = scan_day
        self._slices = {name: sorted(values) for name, values in slices.items()}
        self._aliased_trie: PrefixTrie[IPv6Prefix] = PrefixTrie()
        for prefix in aliased:
            self._aliased_trie[prefix] = prefix
        self._origins = dict(origins) if origins else {}
        self._by_asn: Dict[int, List[int]] = {}
        for address, asn in sorted(self._origins.items()):
            self._by_asn.setdefault(asn, []).append(address)

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_store(
        cls, store: SnapshotStore, snapshot_id: Optional[str] = None, rib=None
    ) -> "QueryIndex":
        """Build the index for a snapshot (default: the store head).

        ASN slices come from the snapshot's ``origins`` artifact when
        present, else from a live ``rib`` (anything with an
        ``origin_as(address)`` method), else are unavailable.
        """
        if snapshot_id is None:
            snapshot_id = store.head_id()
            if snapshot_id is None:
                raise PublishError("cannot index an empty store")
        manifest = store.manifest(snapshot_id)
        slices: Dict[str, List[int]] = {}
        for name in ADDRESS_SLICES:
            if name in manifest.artifacts:
                text = store.read_artifact(snapshot_id, name)
                slices[name] = sorted(read_address_list(io.StringIO(text)))
        aliased: List[IPv6Prefix] = []
        if "aliased" in manifest.artifacts:
            text = store.read_artifact(snapshot_id, "aliased")
            aliased = read_aliased_prefixes(io.StringIO(text))
        origins: Dict[int, int] = {}
        if "origins" in manifest.artifacts:
            for line in store.read_artifact(snapshot_id, "origins").splitlines():
                if line and not line.startswith("#"):
                    address_text, asn_text = line.split()
                    origins[parse_ipv6(address_text)] = int(asn_text)
        elif rib is not None:
            for address in slices.get("responsive", ()):
                asn = rib.origin_as(address)
                if asn is not None:
                    origins[address] = asn
        return cls(
            snapshot_id=snapshot_id,
            scan_day=manifest.scan_day,
            slices=slices,
            aliased=aliased,
            origins=origins,
        )

    # ------------------------------------------------------------------
    # queries

    @property
    def protocols(self) -> Tuple[str, ...]:
        """The queryable slice names this snapshot carries."""
        return tuple(sorted(self._slices))

    @property
    def has_origins(self) -> bool:
        """True when ASN filtering is available."""
        return bool(self._origins)

    def query(
        self,
        prefix: Optional[IPv6Prefix] = None,
        protocol: Optional[str] = None,
        asn: Optional[int] = None,
    ) -> List[int]:
        """Responsive addresses matching every given filter, sorted.

        ``protocol`` names a slice (``responsive``, ``icmp``, ``tcp80``,
        ``tcp443``, ``udp53``, ``udp443``); omitted it defaults to the
        cleaned union.  Unknown slices raise :class:`PublishError`, as
        does an ASN filter on a snapshot without origin data.
        """
        name = protocol or "responsive"
        addresses = self._slices.get(name)
        if addresses is None:
            raise PublishError(
                f"unknown protocol slice {name!r}; this snapshot has "
                f"{list(self.protocols)}"
            )
        if prefix is not None:
            low = bisect_left(addresses, prefix.first)
            high = bisect_right(addresses, prefix.last)
            addresses = addresses[low:high]
        if asn is not None:
            if not self._origins:
                raise PublishError(
                    "ASN queries need an 'origins' artifact (or a live RIB) "
                    "for this snapshot"
                )
            addresses = [
                address for address in addresses
                if self._origins.get(address) == asn
            ]
        return list(addresses)

    def asns(self) -> List[int]:
        """All origin ASNs with at least one responsive address."""
        return sorted(self._by_asn)

    def asn_of(self, address: int) -> Optional[int]:
        """Origin AS of a responsive address, when origin data exists."""
        return self._origins.get(address)

    def aliased_covering(self, address: int) -> Optional[IPv6Prefix]:
        """The most specific aliased prefix covering ``address``."""
        return self._aliased_trie.longest_value(address)

    def aliased_within(self, prefix: IPv6Prefix) -> List[IPv6Prefix]:
        """Aliased prefixes fully contained in ``prefix``, sorted."""
        return sorted(
            stored for stored in self._aliased_trie.keys()
            if prefix.contains_prefix(stored)
        )

    def counts(self) -> Dict[str, int]:
        """Per-slice address counts plus the aliased prefix count."""
        out = {name: len(values) for name, values in self._slices.items()}
        out["aliased"] = len(self._aliased_trie)
        return out
