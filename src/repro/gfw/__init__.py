"""Detection and filtering of GFW-injected DNS responses (Sec. 4).

The paper's new pipeline stage: classify UDP/53 scan responses whose
answers cannot be genuine (A records answering AAAA queries, Teredo
addresses, duplicate answers mapping to operators unrelated to the
queried domain), filter 134 M historically poisoned addresses, and keep
filtering scan results going forward.
"""

from repro.gfw.detector import (
    InjectionEvidence,
    Ipv4Whois,
    answer_evidence,
    classify_response,
)
from repro.gfw.filter import GfwFilter, ScanCleaningResult
from repro.gfw.impact import GfwImpactReport, impact_report

__all__ = [
    "GfwFilter",
    "GfwImpactReport",
    "InjectionEvidence",
    "Ipv4Whois",
    "ScanCleaningResult",
    "answer_evidence",
    "classify_response",
    "impact_report",
]
