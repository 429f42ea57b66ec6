"""Packed, integer-coded chunk results of the scan engine.

Each chunk the engine scans returns a :class:`PackedChunkResult`:
``array('Q')`` responder indices per fast protocol, an ``array('Q')`` of
UDP/53 hit indices plus one *meta byte* per hit (integer-coded
genuine-DNS behavior, injection/control flags), flattened
injected-answer payload integers, and a scannable bitmask row for
rate-limited scans.

Indices are positions in the scan's full target list, so the scan
decodes a responder with one list lookup; the UDP/53 hit arrays are
copied as they are into the scan's packed response table
(:mod:`repro.scan.responses`), which builds DNS response objects only
when a caller reads one, and the GFW filter classifies those rows
without unpacking them.  Everything in this module is structural: the
bitmask rows round-trip bit-exactly (property-tested in
``tests/scan/test_wire.py``) and carry no scan semantics.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Optional, Sequence, Tuple

# ---------------------------------------------------------------------------
# udp-hit meta byte layout

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
#: the hit appended a control-domain NS log entry
FLAG_CONTROL = 1 << 4
#: the control entry's egress differs from the target (proxy resolver)
FLAG_PROXY = 1 << 5


#: bit positions set in a byte, for scannable-bitmask decoding
_BYTE_BITS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(bit for bit in range(8) if value >> bit & 1) for value in range(256)
)


def pack_bitmask(flags: Sequence[bool]) -> bytes:
    """Pack booleans into a little-endian-bit bitmask row."""
    out = bytearray((len(flags) + 7) // 8)
    for index, flag in enumerate(flags):
        if flag:
            out[index >> 3] |= 1 << (index & 7)
    return bytes(out)


def iter_bitmask(mask: bytes, count: int) -> Iterator[int]:
    """Indices of set bits in a :func:`pack_bitmask` row, ascending."""
    for byte_index, value in enumerate(mask):
        if value:
            base = byte_index << 3
            for bit in _BYTE_BITS[value]:
                index = base + bit
                if index < count:
                    yield index


class PackedChunkResult:
    """Integer-coded outcome of one fused chunk scan.

    All index arrays hold positions in the scan's full target list (not
    chunk-relative), in target order.  ``udp_meta[i]`` describes hit
    ``udp_idx[i]`` via the ``GENUINE_*``/``FLAG_*`` codes above;
    injected-answer payloads for flagged hits follow in ``inj_counts`` /
    ``inj_answers`` order (one ``Q`` slot per answer, or two — ``lo,
    hi`` — when ``inj_wide``).
    """

    __slots__ = (
        "count", "burst_targets", "fast_retry_draws", "udp_retry_draws",
        "fast_idx", "udp_idx", "udp_meta", "inj_counts", "inj_answers",
        "inj_wide", "scannable_bits",
    )

    def __init__(self) -> None:
        self.count = 0
        self.burst_targets = 0
        self.fast_retry_draws = 0
        self.udp_retry_draws = 0
        #: per fast protocol (slice order), responder indices
        self.fast_idx: Tuple[array, ...] = (
            array("Q"), array("Q"), array("Q"), array("Q"),
        )
        #: UDP/53 hit indices, in target order
        self.udp_idx: array = array("Q")
        #: one meta byte per UDP/53 hit
        self.udp_meta: bytearray = bytearray()
        #: per FLAG_INJECTED hit, the number of forged responses
        self.inj_counts: array = array("H")
        #: flattened forged-answer payload integers
        self.inj_answers: array = array("Q")
        #: True when answers take two slots (128-bit Teredo addresses)
        self.inj_wide: bool = False
        #: non-blocked chunk positions as a bitmask row, kept only when
        #: per-AS rate limiting needs the probed list (chunk-relative)
        self.scannable_bits: Optional[bytes] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PackedChunkResult count={self.count} "
            f"fast={[len(i) for i in self.fast_idx]} "
            f"udp={len(self.udp_idx)} inj={len(self.inj_counts)}>"
        )
