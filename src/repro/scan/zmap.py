"""A ZMapv6-like scanner over the simulated internet.

One probe module per hitlist protocol (ICMP echo, TCP SYN 80/443, UDP
DNS 53, QUIC initial 443).  The scanner adds the real-world artefact the
oracle does not model: per-probe packet loss, deterministic per
(address, protocol, day) so re-running a scan reproduces it while
*different* scans lose different probes — exactly the noise the APD's
merge-with-previous-scans logic exists to absorb.

:class:`ZMapScanner` holds the vantage's configuration (world,
blocklist, loss, retries, fault plan) and its probe metrics; the probes
themselves go through :mod:`repro.scan.engine`.

Like the real ZMap, the UDP/53 module counts **any** DNS response from
the target's address as success — which is precisely how GFW-injected
forgeries poison the hitlist (Sec. 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.protocols import Protocol
from repro.runtime.faults import FaultPlan, RetryPolicy
from repro.scan.blocklist import Blocklist
from repro.scan.responses import ResponseTable
from repro.simnet.internet import SimInternet

_UINT64_SPAN = float(1 << 64)


@dataclass(frozen=True)
class ScanResult:
    """Outcome of one single-protocol scan."""

    protocol: Protocol
    day: int
    targets: int
    responders: frozenset

    @property
    def hit_rate(self) -> float:
        """Responders per probed target."""
        return len(self.responders) / self.targets if self.targets else 0.0


@dataclass
class Udp53Result:
    """Outcome of a UDP/53 scan, keeping full responses for inspection.

    ``responders`` contains every target ZMap would report as successful;
    ``responses`` maps each probed responder to the responses received
    (several per target when injectors fire).  It is the scan's packed
    :class:`~repro.scan.responses.ResponseTable`, which builds a
    responder's response tuple only when it is read; left out, it is an
    empty table for ``qname``.  Responders carried forward by the
    incremental scheduler have no row.
    """

    day: int
    qname: str
    targets: int = 0
    responders: Set[int] = field(default_factory=set)
    responses: ResponseTable = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.responses is None:
            self.responses = ResponseTable(self.qname)

    @property
    def hit_rate(self) -> float:
        """Responders per probed target (parity with :class:`ScanResult`)."""
        return len(self.responders) / self.targets if self.targets else 0.0


class ZMapScanner:
    """One vantage's scan configuration, probe counter and metric handles.

    :meth:`scan_all_protocols` probes through a serial
    :class:`~repro.scan.engine.ScanEngine`; the service and the vantage
    fleet drive their own engines over the same scanner, and the APD
    probes through :func:`~repro.scan.engine.apd_wave_bitmaps`.
    """

    def __init__(
        self,
        internet: SimInternet,
        blocklist: Optional[Blocklist] = None,
        loss_rate: float = 0.03,
        seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate out of range: {loss_rate}")
        self._internet = internet
        self._blocklist = blocklist or Blocklist()
        self._loss_rate = loss_rate
        self._loss_threshold = int(loss_rate * _UINT64_SPAN)
        self._seed = seed
        self._fault_plan = fault_plan
        self._retry_attempts = 1 if retry is None else retry.attempts
        self.probes_sent = 0
        self._metrics = metrics
        #: lazily created serial engine backing :meth:`scan_all_protocols`
        self._engine = None
        if metrics is not None:
            self._m_probes = metrics.counter(
                "repro_probes_sent_total", "Probes sent, by protocol.",
                ("protocol",))
            self._m_hits = metrics.counter(
                "repro_probe_hits_total", "Probes answered, by protocol.",
                ("protocol",))
            self._m_retries = metrics.counter(
                "repro_probe_retries_total",
                "Extra per-probe loss re-draws taken by the retry policy.")
            self._m_burst = metrics.counter(
                "repro_burst_suppressed_total",
                "Probes swallowed by correlated loss bursts.")
            self._m_rate_limited = metrics.counter(
                "repro_rate_limited_total",
                "Responders dropped by per-AS rate limiting, by protocol.",
                ("protocol",))

    @property
    def blocklist(self) -> Blocklist:
        """The blocklist honoured by every probe."""
        return self._blocklist

    def scan_all_protocols(
        self, targets: Iterable[int], day: int, qname: str
    ) -> Tuple[Dict[Protocol, ScanResult], Udp53Result]:
        """Run the full hitlist protocol suite against one target set.

        One fused ground-truth pass per target (see
        :mod:`repro.scan.engine`).  Loss stays independent per (target,
        protocol, day): the four fast probes draw from disjoint 16-bit
        slices of one 64-bit hash, UDP/53 from its own 64-bit draw.
        """
        engine = self._engine
        if engine is None:
            from repro.scan.engine import ScanEngine

            engine = self._engine = ScanEngine(self)
        return engine.scan_all_protocols(targets, day, qname)
