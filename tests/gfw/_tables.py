"""Hand-built UDP/53 scan results for GFW filter tests.

``GfwFilter.clean_scan`` reads a scan's packed ``ResponseTable``.  The
helper here fills one the way a scan engine chunk does — one
``extend`` call with responders, meta bytes, forged counts and payload
slots — from a ``{responder: (forged, variant)}`` map:
``forged`` are the addresses of the responder's forged answers (IPv4s
in an A-record era, Teredo addresses in a Teredo era; one response
each) and ``variant`` is the ``GENUINE_*`` code of its genuine
response (``NONE`` for a dead target).
"""

from typing import Mapping, Sequence, Tuple

from repro.protocols import DnsAnswer, RecordType
from repro.scan import responses
from repro.scan.responses import ResponseTable
from repro.scan.zmap import Udp53Result

QNAME = "www.google.com"
#: no genuine response: only forgeries came back
NONE = responses.GENUINE_NONE
#: a genuine NOERROR response carrying the table's resolved answers
NOERROR = responses.GENUINE_NOERROR
#: what an open resolver answers for QNAME by default
RESOLVED = (DnsAnswer(rtype=RecordType.AAAA, address=42 << 64),)

_M64 = 0xFFFFFFFFFFFFFFFF


def scan_result(
    day: int,
    rows: Mapping[int, Tuple[Sequence[int], int]],
    teredo: bool = False,
    resolved: Tuple[DnsAnswer, ...] = RESOLVED,
) -> Udp53Result:
    """A UDP/53 result of one scan whose responders are ``rows``' keys.

    ``teredo`` picks the era: forged answers are Teredo AAAA records
    (two payload slots each) rather than A records.
    """
    metas, counts, payloads = [], [], []
    for forged, variant in rows.values():
        meta = variant
        if forged:
            meta |= responses.FLAG_INJECTED
            counts.append(len(forged))
            for address in forged:
                if teredo:
                    payloads.extend((address & _M64, address >> 64))
                else:
                    payloads.append(address)
        metas.append(meta)
    table = ResponseTable(QNAME, resolved, wide=teredo)
    table.extend(list(rows), metas, counts, payloads)
    return Udp53Result(
        day=day, qname=QNAME, targets=len(rows), responders=set(rows),
        responses=table,
    )
