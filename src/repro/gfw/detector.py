"""Classify DNS responses as GFW-injected.

The detector only uses observable evidence (the paper's Sec. 4.2):

* the scan asks for a AAAA record, but the response carries an **A
  record** — genuine resolvers do not answer a AAAA query with A data;
* the response's AAAA answer is a **Teredo** address (deprecated
  tunnelling scheme, RFC 4380) embedding an IPv4 that public WHOIS data
  maps to an operator unrelated to the queried domain;
* **multiple responses** arrive for a single query (several injectors on
  the path answer independently).

Ground-truth flags (``DnsResponse.injected``) are never consulted.
Every test above reduces to :func:`answer_evidence` on one answer
record, which response objects and packed scan rows share.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Container, Dict, Iterable, Optional, Sequence, Tuple

from repro.net.teredo import is_teredo
from repro.protocols import DnsAnswer, DnsResponse, DnsStatus, RecordType


class InjectionEvidence(enum.Enum):
    """Why a response looks forged."""

    A_FOR_AAAA = "a_for_aaaa"
    TEREDO_ANSWER = "teredo_answer"
    MULTIPLE_RESPONSES = "multiple_responses"
    UNRELATED_OWNER = "unrelated_owner"


@dataclass(frozen=True)
class Ipv4Whois:
    """Public IPv4 allocation data: range -> owner ASN.

    Mirrors what the paper gets from WHOIS/routing data when checking
    that injected answers belong to Facebook/Microsoft/Dropbox rather
    than Google.  Entries are ``(base, prefix_len, owner_asn)``: CIDR
    blocks with their host bits zero that do not overlap, indexed by
    length so an owner lookup costs one dict probe per range length.
    """

    ranges: Tuple[Tuple[int, int, int], ...]
    #: (shift, {base >> shift: owner}) per distinct range length
    _index: Tuple[Tuple[int, Dict[int, int]], ...] = field(
        init=False, repr=False, compare=False)
    #: ``ipv4 >> block_shift`` names a block of the finest range size;
    #: every range is a union of such blocks, so a block has one owner
    block_shift: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tables: Dict[int, Dict[int, int]] = {}
        spans = []
        for base, length, owner in self.ranges:
            size = 1 << (32 - length)
            if base % size:
                raise ValueError(f"whois range {base:#010x}/{length} has host bits set")
            spans.append((base, base + size))
            tables.setdefault(32 - length, {})[base >> (32 - length)] = owner
        spans.sort()
        for (_, end), (start, _) in zip(spans, spans[1:]):
            if start < end:
                raise ValueError(f"whois ranges overlap at {start:#010x}")
        object.__setattr__(self, "_index", tuple(tables.items()))
        object.__setattr__(self, "block_shift", min(tables, default=32))

    def owner_of(self, ipv4: int) -> Optional[int]:
        """The ASN whose allocation contains ``ipv4``, if known."""
        for shift, table in self._index:
            owner = table.get(ipv4 >> shift)
            if owner is not None:
                return owner
        return None


#: WHOIS view of the ranges observed in forged answers during the study
#: (public data; equals the injector pool because both model reality).
DEFAULT_WHOIS = Ipv4Whois(
    ranges=(
        (0x1F0D5800, 21, 32934),  # Facebook
        (0x0D6B4000, 18, 8075),  # Microsoft
        (0xA27D0000, 16, 19679),  # Dropbox
    )
)


_DEFAULT_OWNERS = frozenset((15169,))  # www.google.com -> Google


def answer_evidence(
    rtype: RecordType,
    address: int,
    expected_rtype: RecordType = RecordType.AAAA,
    whois: Ipv4Whois = DEFAULT_WHOIS,
    owners: Container[int] = _DEFAULT_OWNERS,
) -> Optional[InjectionEvidence]:
    """Evidence of forgery carried by one answer record of a NOERROR response.

    The single per-answer test: :func:`classify_response` runs it over a
    response object's answers, the GFW filter once per A-record response
    table and once per distinct high word of a Teredo one (its result
    depends on nothing else there).  ``owners`` are the ASNs that
    legitimately serve the queried domain.
    """
    if rtype is RecordType.A:
        if expected_rtype is RecordType.AAAA:
            return InjectionEvidence.A_FOR_AAAA
        owner = whois.owner_of(address)
        if owner is not None and owner not in owners:
            return InjectionEvidence.UNRELATED_OWNER
    elif rtype is RecordType.AAAA and is_teredo(address):
        return InjectionEvidence.TEREDO_ANSWER
    return None


def response_evidence(
    status: DnsStatus,
    answers: Sequence[DnsAnswer],
    expected_rtype: RecordType = RecordType.AAAA,
    whois: Ipv4Whois = DEFAULT_WHOIS,
    domain_owner_asns: Iterable[int] = _DEFAULT_OWNERS,
) -> Optional[InjectionEvidence]:
    """:func:`classify_response` on a response's status and answers."""
    if status is not DnsStatus.NOERROR:
        return None
    owners = (
        domain_owner_asns
        if domain_owner_asns is _DEFAULT_OWNERS
        else set(domain_owner_asns)
    )
    for answer in answers:
        kind = answer_evidence(
            answer.rtype, answer.address, expected_rtype, whois, owners
        )
        if kind is not None:
            return kind
    return None


def classify_response(
    response: DnsResponse,
    expected_rtype: RecordType = RecordType.AAAA,
    whois: Ipv4Whois = DEFAULT_WHOIS,
    domain_owner_asns: Iterable[int] = _DEFAULT_OWNERS,
) -> Optional[InjectionEvidence]:
    """Evidence of forgery carried by a single response, if any."""
    return response_evidence(
        response.status, response.answers, expected_rtype, whois,
        domain_owner_asns,
    )
