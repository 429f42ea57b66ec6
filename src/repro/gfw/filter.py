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

Cleaning follows the censor, not the hitlist: a Teredo-era scan carries
over a hundred thousand forged answers.  So the scan's response table is
read by column (:meth:`~repro.scan.responses.ResponseTable.columns`),
with one evidence test per distinct Teredo high word and attribution
counted off the low-word column.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, repeat
from operator import add, and_, gt, or_, sub, xor
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
from repro.scan.responses import GENUINE_NONE, ResponseTable
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


def _rows_with_any(counts: Sequence[int], flags: Sequence[bool]) -> List[bool]:
    """Per row of ``counts`` consecutive ``flags``, whether any is set."""
    seen = [0, *accumulate(flags)]
    ends = list(accumulate(counts))
    return list(map(
        gt, map(seen.__getitem__, ends), map(seen.__getitem__, map(sub, ends, counts))
    ))


#: the 32-bit half of a native 64-bit word that holds its low bits
_LOW_HALF = 0 if sys.byteorder == "little" else 1


def _teredo_clients(lows: array) -> Iterable[Tuple[int, int]]:
    """``(client IPv4, answers)`` of Teredo low words, IPv4s distinct and
    in first-seen order.

    A Teredo address's low 32 bits are its client IPv4's ones-complement
    (RFC 4380); they are counted straight off the words' memory.
    """
    halves = Counter(memoryview(lows).cast("B").cast("I")[_LOW_HALF::2])
    return zip(map(xor, halves, repeat(0xFFFFFFFF)), halves.values())


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
        self._attribute_counts(Counter(ipv4s).items(), times)

    def _attribute_counts(
        self, tallies: Iterable[Tuple[int, int]], times: int = 1
    ) -> None:
        """Count ``(ipv4, answers)`` pairs of distinct IPv4s, ``times``
        each, against their owners."""
        # forged answers recycle a small IPv4 pool, so owner lookups are
        # memoized (the whois scan dominated the per-scan cleaning cost)
        owner_cache = self._owner_cache
        owners = self.forged_answer_owners
        for ipv4, count in tallies:
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
        :class:`ResponseTable` is read by column without building
        response objects; responders without a row (carried forward by
        the incremental scheduler) are clean.
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
        """Classify the table by column, without per-row lists.

        :func:`answer_evidence` runs once for an A-record table, whose
        forged answers all share one type, or once per distinct high
        word of a Teredo table (``2001::/32`` lies inside it); each
        genuine response variant is classified once per scan.  A row is
        injected when one of its answers or its genuine variant carries
        evidence.
        """
        rows = table.columns(responders)
        counts, variants = rows.counts, rows.variants
        found: Counter = Counter()  # record-level evidence of injected rows
        # per forged answer, whether it carries evidence; None: all do
        hot_answers: Optional[List[bool]] = None
        if table.wide:
            lows, highs = rows.answers
            words = set(highs)
            word_kind = {
                high: answer_evidence(RecordType.AAAA, high << 64) for high in words
            }
            hot = {high for high in words if word_kind[high] is not None}
            if len(hot) < len(words):
                hot_answers = list(map(hot.__contains__, highs))
            for kind in set(word_kind.values()) - {None}:
                kind_words = {high for high in hot if word_kind[high] is kind}
                found[kind] = (
                    len(highs) if len(kind_words) == len(words)
                    else sum(map(kind_words.__contains__, highs))
                )
        else:
            (lows,) = rows.answers
            kind = answer_evidence(RecordType.A, lows[0]) if lows else None
            if kind is not None:
                found[kind] = len(lows)
            else:
                hot_answers = [False] * len(lows)
        # a row is evident when one of its answers is
        evident: Sequence[int] = (
            counts if hot_answers is None else _rows_with_any(counts, hot_answers)
        )

        variant_kind: Dict[int, InjectionEvidence] = {}
        for variant in set(variants) - {GENUINE_NONE}:
            kind = response_evidence(*table.genuine(variant))
            if kind is not None:
                variant_kind[variant] = kind
        if variant_kind:
            evident = list(map(
                or_, map(bool, evident), map(variant_kind.__contains__, variants)
            ))

        injected = cleaning.injected_responders
        injected.update(compress(rows.responders, evident))
        # every response of an injected row counts when there are several
        totals = map(add, counts, map(bool, variants))
        multiple = sum(filter((1).__lt__, compress(totals, evident)))
        variant_rows = Counter(compress(variants, evident))
        del variant_rows[GENUINE_NONE]
        for variant, count in variant_rows.items():
            if variant in variant_kind:
                found[variant_kind[variant]] += count
        evidence = cleaning.evidence_counts
        for kind in InjectionEvidence:
            if found[kind]:
                evidence[kind] = found[kind]
        if multiple:
            evidence[InjectionEvidence.MULTIPLE_RESPONSES] = multiple

        # attribute the forged answers of injected rows, in row order:
        # every answer when each carries evidence
        picked = (
            None if hot_answers is None
            else list(chain.from_iterable(map(repeat, map(bool, evident), counts)))
        )
        if table.wide:
            teredo = {high for high in words if is_teredo(high << 64)}
            if picked is not None or len(teredo) < len(words):
                keep = map(teredo.__contains__, highs)
                if picked is not None:
                    keep = map(and_, picked, keep)
                lows = array("Q", compress(lows, keep))
            self._attribute_counts(_teredo_clients(lows))
        else:
            self._attribute(lows if picked is None else compress(lows, picked))
        for variant, count in variant_rows.items():
            self._attribute((
                ipv4 for answer in table.genuine(variant)[1]
                for ipv4 in _ipv4s_of(answer.rtype, (answer.address,))
            ), count)
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
