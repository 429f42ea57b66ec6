"""Frozen plain-dict reference of the GFW filter's scan cleaning.

``GfwFilter.clean_scan`` classifies the packed rows of a scan's
``ResponseTable`` without building response objects.  This module keeps
the per-responder path it replaced: build every response, classify each
with ``classify_response`` and aggregate per target.  Differential tests
clean one scan both ways and demand identical verdicts, evidence, owner
attribution and metrics.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

from repro.gfw.detector import (
    DEFAULT_WHOIS,
    InjectionEvidence,
    Ipv4Whois,
    classify_response,
)
from repro.gfw.filter import GfwFilter, ScanCleaningResult, _ipv4s_of
from repro.protocols import DnsResponse, RecordType
from repro.scan.zmap import Udp53Result


def classify_target(
    responses: Sequence[DnsResponse],
    expected_rtype: RecordType = RecordType.AAAA,
    whois: Ipv4Whois = DEFAULT_WHOIS,
) -> Dict[InjectionEvidence, int]:
    """Aggregate forgery evidence across all responses to one probe.

    Returns a (possibly empty) evidence histogram.  A target with any
    evidence is treated as injection-affected for this scan.
    """
    evidence: Dict[InjectionEvidence, int] = {}
    if len(responses) > 1:
        evidence[InjectionEvidence.MULTIPLE_RESPONSES] = len(responses)
    for response in responses:
        kind = classify_response(response, expected_rtype, whois)
        if kind is not None:
            evidence[kind] = evidence.get(kind, 0) + 1
    return evidence


def is_injected_target(
    responses: Sequence[DnsResponse],
    expected_rtype: RecordType = RecordType.AAAA,
    whois: Ipv4Whois = DEFAULT_WHOIS,
) -> bool:
    """True when a probe's responses carry *record-level* forgery evidence.

    Multiple responses alone are treated as corroborating, not
    sufficient: retransmissions can legitimately duplicate answers.
    """
    return any(
        classify_response(response, expected_rtype, whois) is not None
        for response in responses
    )


def clean_mapping(
    gfw: GfwFilter, result: Udp53Result,
    responses_of: Mapping[int, Tuple[DnsResponse, ...]],
) -> ScanCleaningResult:
    """``gfw.clean_scan(result)``, classifying ``responses_of`` (a plain
    responder -> responses dict, in the table's row order) one response
    object at a time.

    Owners are attributed in the order the filter promises, which reaches
    checkpoint bytes: the forged answers of injected responders in row
    order, then their genuine answers in row order.  The ``injected``
    flag of a response tells the two apart here; no verdict reads it.
    """
    cleaning = ScanCleaningResult(day=result.day)
    evidence = cleaning.evidence_counts
    multiple = InjectionEvidence.MULTIPLE_RESPONSES
    responders = result.responders
    # responders without a row have no responses and stay clean
    order = [responder for responder in responses_of if responder in responders]
    order += [responder for responder in responders if responder not in responses_of]
    genuine = []
    for responder in order:
        responses = responses_of.get(responder, ())
        counts = classify_target(responses)
        if any(kind is not multiple for kind in counts):
            cleaning.injected_responders.add(responder)
            for kind, count in counts.items():
                evidence[kind] = evidence.get(kind, 0) + count
            gfw._attribute(_ipv4s(r for r in responses if r.injected))
            genuine += [r for r in responses if not r.injected]
        else:
            cleaning.clean_responders.add(responder)
    gfw._attribute(_ipv4s(genuine))
    gfw.ever_injected.update(cleaning.injected_responders)
    if gfw._metrics is not None:
        for kind, count in evidence.items():
            gfw._m_evidence.labels(kind=kind.value).inc(count)
    return cleaning


def _ipv4s(responses: Iterable[DnsResponse]) -> Iterator[int]:
    """IPv4s named by the A and Teredo AAAA answers of ``responses``."""
    for response in responses:
        for answer in response.answers:
            yield from _ipv4s_of(answer.rtype, (answer.address,))
