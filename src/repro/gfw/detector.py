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
from dataclasses import dataclass
from typing import Container, Iterable, Optional, Sequence, Tuple

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
    than Google.  Entries are ``(base, prefix_len, owner_asn)``.
    """

    ranges: Tuple[Tuple[int, int, int], ...]

    def owner_of(self, ipv4: int) -> Optional[int]:
        """The ASN whose allocation contains ``ipv4``, if known."""
        for base, length, owner in self.ranges:
            if base <= ipv4 < base + (1 << (32 - length)):
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
