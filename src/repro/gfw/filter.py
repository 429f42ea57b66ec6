"""The GFW filter added to the hitlist pipeline (Fig. 1, green box).

Two roles, matching the paper's deployment in February 2022:

* **post-scan cleaning**: immediately after each UDP/53 scan, responders
  whose responses carry forgery evidence are removed from the DNS
  results, so freshly scanned addresses are only counted DNS-responsive
  when they really answered.  Addresses responsive to other protocols
  stay in the input; pure-injection addresses then age out through the
  30-day filter.
* **historical cleaning**: addresses that ever showed injection but
  never answered any other protocol are dropped from the accumulated
  input outright (the paper's one-time removal of 134 M addresses).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Set

from repro.gfw.detector import (
    DEFAULT_WHOIS,
    InjectionEvidence,
    Ipv4Whois,
    answer_evidence,
    response_evidence,
)
from repro.net.teredo import is_teredo
from repro.obs.metrics import MetricsRegistry
from repro.protocols import RecordType
from repro.scan.responses import ResponseTable
from repro.scan.zmap import Udp53Result

_MISSING = object()


def _ipv4s_of(rtype: RecordType, addresses: Iterable[int]) -> Iterable[int]:
    """IPv4s named by A or Teredo AAAA answers of one type (attribution)."""
    if rtype is RecordType.A:
        return addresses
    if rtype is RecordType.AAAA:
        # decode_teredo(...).client_ipv4 without building the
        # TeredoAddress (RFC 4380 ones-complement client bits)
        return [
            (address & 0xFFFFFFFF) ^ 0xFFFFFFFF
            for address in addresses if is_teredo(address)
        ]
    return ()


@dataclass
class ScanCleaningResult:
    """Outcome of cleaning one UDP/53 scan."""

    day: int
    clean_responders: Set[int] = field(default_factory=set)
    injected_responders: Set[int] = field(default_factory=set)
    evidence_counts: Dict[InjectionEvidence, int] = field(default_factory=dict)


class GfwFilter:
    """Stateful injection bookkeeping across the service lifetime."""

    def __init__(self, whois: Ipv4Whois = DEFAULT_WHOIS,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        #: addresses that showed injection evidence in at least one scan
        self.ever_injected: Set[int] = set()
        #: addresses that ever genuinely answered a non-DNS probe
        self.ever_other_protocol: Set[int] = set()
        #: forged answers attributed to their (unrelated) IPv4 owners —
        #: the paper's Facebook/Microsoft/Dropbox observation
        self.forged_answer_owners: Dict[int, int] = {}
        self._whois = whois
        #: memoized ``whois.owner_of`` results (forged IPv4s recur)
        self._owner_cache: Dict[int, Optional[int]] = {}
        self._metrics = metrics
        if metrics is not None:
            self._m_evidence = metrics.counter(
                "repro_gfw_evidence_total",
                "Forgery evidence observed in UDP/53 responses, by kind.",
                ("kind",))

    def _attribute(self, ipv4s: Iterable[int], times: int = 1) -> None:
        """Count forged-answer IPv4s, ``times`` each, against their owners."""
        # forged answers recycle a small IPv4 pool, so owner lookups are
        # memoized (the whois scan dominated the per-scan cleaning cost)
        owner_cache = self._owner_cache
        owners = self.forged_answer_owners
        for ipv4, count in Counter(ipv4s).items():
            owner = owner_cache.get(ipv4, _MISSING)
            if owner is _MISSING:
                owner = owner_cache[ipv4] = self._whois.owner_of(ipv4)
            if owner is not None:
                owners[owner] = owners.get(owner, 0) + count * times

    def clean_scan(self, result: Udp53Result) -> ScanCleaningResult:
        """Split one scan's responders into clean and injected.

        A responder is injected exactly when one of its responses
        carries record-level evidence (:func:`answer_evidence`);
        ``MULTIPLE_RESPONSES`` alone is corroborating, not sufficient,
        and is counted only for injected responders.  The scan's
        :class:`ResponseTable` is classified row by row without
        building response objects; responders without a row (carried
        forward by the incremental scheduler) are clean.
        """
        if not isinstance(result.responses, ResponseTable):
            raise TypeError(
                "clean_scan needs the scan's ResponseTable as "
                f"result.responses, got {type(result.responses).__name__}"
            )
        cleaning = ScanCleaningResult(day=result.day)
        self._clean_table(result.responders, result.responses, cleaning)
        self.ever_injected.update(cleaning.injected_responders)
        if self._metrics is not None:
            # one increment per kind and scan, not per responder
            for kind, count in cleaning.evidence_counts.items():
                self._m_evidence.labels(kind=kind.value).inc(count)
        return cleaning

    def _clean_table(
        self, responders: Set[int], table: ResponseTable,
        cleaning: ScanCleaningResult,
    ) -> None:
        """Classify packed rows: each forged answer, and each genuine
        response variant once per scan.  Evidence is tallied per scan
        (``InjectionEvidence`` hashes in Python, so no per-row dicts)."""
        rtype = table.forged_rtype
        injected = cleaning.injected_responders
        found: List[InjectionEvidence] = []  # record-level, injected rows
        multiple = 0
        forged_seen: List[int] = []  # forged answers of injected rows
        variant_kind: Dict[int, Optional[InjectionEvidence]] = {}
        variant_rows: Dict[int, int] = {}  # injected rows per variant
        for responder, variant, forged in table.observed():
            if responder not in responders:
                continue
            kinds = [
                kind for kind in map(answer_evidence, repeat(rtype), forged)
                if kind is not None
            ]
            if variant:
                kind = variant_kind.get(variant, _MISSING)
                if kind is _MISSING:
                    kind = variant_kind[variant] = response_evidence(
                        *table.genuine(variant)
                    )
                if kind is not None:
                    kinds.append(kind)
            if not kinds:
                continue
            injected.add(responder)
            found += kinds
            total = len(forged) + (1 if variant else 0)
            if total > 1:
                multiple += total
            forged_seen += forged
            if variant:
                variant_rows[variant] = variant_rows.get(variant, 0) + 1
        evidence = cleaning.evidence_counts
        for kind in InjectionEvidence:
            count = found.count(kind)
            if count:
                evidence[kind] = count
        if multiple:
            evidence[InjectionEvidence.MULTIPLE_RESPONSES] = multiple
        self._attribute(_ipv4s_of(rtype, forged_seen))
        for variant, rows in variant_rows.items():
            self._attribute((
                ipv4 for answer in table.genuine(variant)[1]
                for ipv4 in _ipv4s_of(answer.rtype, (answer.address,))
            ), rows)
        clean = set(responders)
        clean -= injected
        cleaning.clean_responders = clean

    def note_other_protocol_responders(self, responders: Set[int]) -> None:
        """Record genuine responsiveness to any non-DNS protocol."""
        self.ever_other_protocol.update(responders)

    def historical_filter_set(self) -> Set[int]:
        """Addresses to purge from the input (Sec. 4.2's 134 M).

        Injection-only addresses: at least one injected response across
        the service history and never any other-protocol response.
        """
        return self.ever_injected - self.ever_other_protocol

    @property
    def impacted_count(self) -> int:
        """Total addresses that ever showed injection."""
        return len(self.ever_injected)
