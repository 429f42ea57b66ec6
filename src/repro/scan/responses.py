"""Per-scan UDP/53 response table: packed rows, responses built on read.

A GFW-era scan hears tens of thousands of forged answers.  Building a
``DnsResponse`` (plus its ``DnsAnswer`` and tuples) for each of them,
only for the GFW filter to walk them once and drop them, would make
response bookkeeping the most expensive step of such a scan, most of it
in cyclic-GC passes set off by the allocations.  :class:`ResponseTable`
keeps what the scan engine's chunks add instead: one int code per
responder plus one flat payload array per scan.

A row code packs three fields::

    code = meta | count << 8 | offset << 24

``meta`` is the meta byte below (the genuine response variant and
whether forged answers came first), ``count`` the number of forged
answers and ``offset`` the first payload slot of those answers in the
table's payload array (one slot per A-record answer, two — ``lo, hi``
— per Teredo AAAA answer).  This module is the only one that defines
the row format: the engine writes meta bytes with the codes below,
:meth:`ResponseTable.extend` assigns counts and offsets.

The table is a read-only ``Mapping[int, Tuple[DnsResponse, ...]]``:
``table[responder]`` builds exactly the responses
``SimInternet.dns_probe`` returns for that responder (forgeries first,
then the genuine response), and ``==`` against a plain dict compares
those.  The GFW filter reads the live rows by column through
:meth:`columns` without building any object.
"""

from __future__ import annotations

from array import array
from itertools import compress, repeat
from operator import add, and_, mul, ne, rshift
from typing import (
    AbstractSet, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional,
    Sequence, Tuple,
)

from repro.protocols import DnsAnswer, DnsResponse, DnsStatus, RecordType

# ---------------------------------------------------------------------------
# meta byte layout

#: genuine-DNS response variant (bits 0-2 of the meta byte)
GENUINE_NONE = 0
GENUINE_REFUSED = 1
GENUINE_REFERRAL = 2
GENUINE_SERVFAIL = 3
GENUINE_BROKEN_ANSWER = 4
GENUINE_NXDOMAIN = 5
GENUINE_NOERROR = 6

GENUINE_MASK = 0b111
#: injected (GFW-forged) responses precede the genuine one
FLAG_INJECTED = 1 << 3

_COUNT_SHIFT = 8
_COUNT_MASK = 0xFFFF
_OFFSET_SHIFT = 24

_REFERRAL_ANSWERS = (DnsAnswer(rtype=RecordType.NS, target="a.root-servers.net"),)
#: a broken resolver's bogus answer: ``::1``
_BROKEN_ANSWERS = (DnsAnswer(rtype=RecordType.AAAA, address=1),)


class RowColumns(NamedTuple):
    """Live rows of a :class:`ResponseTable`, one list per field, in row order."""

    responders: List[int]
    #: each row's ``GENUINE_*`` code (``GENUINE_NONE``: no genuine answer)
    variants: List[int]
    #: each row's number of forged answers
    counts: List[int]
    #: the rows' forged answers, in row order: ``(payloads,)`` of an
    #: A-record table (one IPv4 per answer), ``(lo, hi)`` 64-bit words of
    #: a Teredo table
    answers: Tuple[array, ...]


class ResponseTable(Mapping[int, Tuple[DnsResponse, ...]]):
    """The UDP/53 responses of one scan, decoded per row on access.

    ``resolved`` is the AAAA answer set an open resolver returns for
    ``qname``; ``wide`` says forged answers are Teredo AAAA records
    (two payload slots) rather than A records.  Both are per-scan
    constants, so a table is only merged with tables of the same scan.
    """

    __slots__ = ("qname", "resolved", "wide", "_rows", "_payloads", "_genuine", "_bases")

    def __init__(
        self, qname: str, resolved: Tuple[DnsAnswer, ...] = (), wide: bool = False
    ) -> None:
        self.qname = qname
        self.resolved = resolved
        self.wide = wide
        #: responder -> row code, in target order
        self._rows: Dict[int, int] = {}
        self._payloads = array("Q")
        #: GENUINE_* variant -> (status, answers) of the genuine response
        self._genuine: Dict[int, Tuple[DnsStatus, Tuple[DnsAnswer, ...]]] = {
            GENUINE_REFUSED: (DnsStatus.REFUSED, ()),
            GENUINE_REFERRAL: (DnsStatus.NOERROR, _REFERRAL_ANSWERS),
            GENUINE_SERVFAIL: (DnsStatus.SERVFAIL, ()),
            GENUINE_BROKEN_ANSWER: (DnsStatus.NOERROR, _BROKEN_ANSWERS),
            GENUINE_NXDOMAIN: (DnsStatus.NXDOMAIN, ()),
            GENUINE_NOERROR: (DnsStatus.NOERROR, resolved),
        }
        #: (source table, payload base) pairs already merged by :meth:`take`
        self._bases: List[Tuple["ResponseTable", int]] = []

    @property
    def forged_rtype(self) -> RecordType:
        """Record type of every forged answer in this scan."""
        return RecordType.AAAA if self.wide else RecordType.A

    def empty_copy(self) -> "ResponseTable":
        """An empty table for the same scan (a merge target)."""
        return ResponseTable(self.qname, self.resolved, self.wide)

    # ------------------------------------------------------------------
    # building (scan engine chunks and fleet merge)

    def extend(
        self,
        responders: Sequence[int],
        metas: Sequence[int],
        counts: Sequence[int],
        payloads: Sequence[int],
    ) -> None:
        """Append rows: one meta byte per responder, in order.

        Each ``FLAG_INJECTED`` meta takes the next of ``counts`` (its
        number of forged answers); ``payloads`` holds those answers'
        slots in the same order.
        """
        rows = self._rows
        if not counts:
            rows.update(zip(responders, metas))
            return
        width = 2 if self.wide else 1
        offset = len(self._payloads)
        ci = 0  # cursor into counts
        for responder, meta in zip(responders, metas):
            if meta & FLAG_INJECTED:
                count = counts[ci]
                ci += 1
                rows[responder] = (
                    meta | count << _COUNT_SHIFT | offset << _OFFSET_SHIFT
                )
                offset += count * width
            else:
                rows[responder] = meta
        self._payloads.extend(payloads)

    def drop(self, responder: int) -> None:
        """Remove ``responder``'s row, if any (per-AS rate limiting)."""
        self._rows.pop(responder, None)

    def take(self, source: "ResponseTable", responders: Iterable[int]) -> None:
        """Copy ``source``'s rows for ``responders`` without decoding them.

        Every responder must be a row of ``source``.  The first take from
        a source appends its payload array once; row offsets are rebased
        onto it.
        """
        for known, base in self._bases:
            if known is source:
                break
        else:
            if (source.qname, source.resolved, source.wide) != (
                self.qname, self.resolved, self.wide
            ):
                raise ValueError("cannot merge response tables of different scans")
            base = len(self._payloads)
            self._payloads.extend(source._payloads)
            self._bases.append((source, base))
        rows = self._rows
        src = source._rows
        shift = base << _OFFSET_SHIFT
        for responder in responders:
            code = src[responder]
            # only rows with forged answers carry an offset
            rows[responder] = code + shift if code >> _COUNT_SHIFT else code

    # ------------------------------------------------------------------
    # reading

    def _forged(self, code: int) -> Sequence[int]:
        """Forged answer addresses of one row."""
        count = code >> _COUNT_SHIFT & _COUNT_MASK
        if not count:
            return ()
        start = code >> _OFFSET_SHIFT
        payloads = self._payloads
        if not self.wide:
            return payloads[start:start + count]
        stop = start + 2 * count
        return [
            lo | hi << 64
            for lo, hi in zip(payloads[start:stop:2], payloads[start + 1:stop:2])
        ]

    def genuine(self, variant: int) -> Tuple[DnsStatus, Tuple[DnsAnswer, ...]]:
        """Status and answers of a genuine response variant."""
        return self._genuine[variant]

    def columns(self, chosen: Optional[AbstractSet[int]] = None) -> RowColumns:
        """The live rows whose responder is in ``chosen`` (every row when
        ``None``), by column.

        Reads only the payload spans of those rows: slots left behind by
        :meth:`drop`, or by the rows of a :meth:`take` source that were not
        taken, are skipped.
        """
        rows = self._rows
        if chosen is None or rows.keys() <= chosen:
            responders = list(rows)
            codes = list(rows.values())
        else:
            responders = [responder for responder in rows if responder in chosen]
            codes = [rows[responder] for responder in responders]
        counts = list(map(
            and_, map(rshift, codes, repeat(_COUNT_SHIFT)), repeat(_COUNT_MASK)
        ))
        # copy the rows' payload spans, one slice per run of adjacent spans
        width = 2 if self.wide else 1
        starts = list(map(rshift, compress(codes, counts), repeat(_OFFSET_SHIFT)))
        stops = list(map(
            add, starts, map(mul, filter(None, counts), repeat(width))
        ))
        breaks = list(compress(range(1, len(starts)), map(ne, starts[1:], stops)))
        payloads = self._payloads
        gathered = array("Q")
        for first, last in zip([0, *breaks], [*breaks, len(starts)]):
            if first < last:
                gathered += payloads[starts[first]:stops[last - 1]]
        return RowColumns(
            responders,
            list(map(and_, codes, repeat(GENUINE_MASK))),
            counts,
            (gathered[0::2], gathered[1::2]) if self.wide else (gathered,),
        )

    def __getitem__(self, responder: int) -> Tuple[DnsResponse, ...]:
        code = self._rows[responder]
        qname = self.qname
        rtype = self.forged_rtype
        responses = [
            DnsResponse(
                responder=responder, qname=qname, status=DnsStatus.NOERROR,
                answers=(DnsAnswer(rtype=rtype, address=address),),
                injected=True,
            )
            for address in self._forged(code)
        ]
        variant = code & GENUINE_MASK
        if variant:
            status, answers = self._genuine[variant]
            responses.append(DnsResponse(
                responder=responder, qname=qname, status=status, answers=answers,
            ))
        return tuple(responses)

    def __contains__(self, responder: object) -> bool:
        return responder in self._rows

    def __iter__(self) -> Iterator[int]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ResponseTable qname={self.qname!r} rows={len(self._rows)} "
            f"payload_slots={len(self._payloads)}>"
        )

