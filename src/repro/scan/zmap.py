"""A ZMapv6-like scanner over the simulated internet.

One probe module per hitlist protocol (ICMP echo, TCP SYN 80/443, UDP
DNS 53, QUIC initial 443).  The scanner adds the real-world artefact the
oracle does not model: per-probe packet loss, deterministic per
(address, protocol, day) so re-running a scan reproduces it while
*different* scans lose different probes — exactly the noise the APD's
merge-with-previous-scans logic exists to absorb.

Like the real ZMap, the UDP/53 module counts **any** DNS response from
the target's address as success — which is precisely how GFW-injected
forgeries poison the hitlist (Sec. 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro._util import mix64
from repro.obs.metrics import MetricsRegistry
from repro.protocols import DnsResponse, Protocol
from repro.runtime.faults import FaultPlan, RetryPolicy
from repro.scan.blocklist import Blocklist
from repro.scan.loss import loss_inners
from repro.simnet.internet import SimInternet

_UINT64_SPAN = float(1 << 64)
_M64 = 0xFFFFFFFFFFFFFFFF


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
    (several per target when injectors fire).  The scan engine fills it
    with a packed :class:`~repro.scan.responses.ResponseTable` that
    builds a responder's response tuple only when it is read; the scalar
    :meth:`ZMapScanner.scan_udp53` and hand-built results use a plain
    dict.  Responders carried forward by the incremental scheduler have
    no entry.
    """

    day: int
    qname: str
    targets: int = 0
    responders: Set[int] = field(default_factory=set)
    responses: Mapping[int, Tuple[DnsResponse, ...]] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Responders per probed target (parity with :class:`ScanResult`)."""
        return len(self.responders) / self.targets if self.targets else 0.0


class ZMapScanner:
    """Stateless scanner issuing probes through the oracle."""

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
        self._retry_draws = 0
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

    def _flush_scan_metrics(
        self, protocol: Protocol, probed: int, hits: int,
        burst_suppressed: int, rate_limited: int,
    ) -> None:
        """Record one finished single-protocol scan into the registry."""
        retry_draws, self._retry_draws = self._retry_draws, 0
        if self._metrics is None:
            return
        self._m_probes.labels(protocol=protocol.label).inc(probed)
        self._m_hits.labels(protocol=protocol.label).inc(hits)
        if retry_draws:
            self._m_retries.inc(retry_draws)
        if burst_suppressed:
            self._m_burst.inc(burst_suppressed)
        if rate_limited:
            self._m_rate_limited.labels(protocol=protocol.label).inc(rate_limited)

    @property
    def blocklist(self) -> Blocklist:
        """The blocklist honoured by every probe."""
        return self._blocklist

    def _loss_inners(self, protocol: Protocol, day: int) -> Tuple[int, ...]:
        """Inner loss hashes of one scan; empty when nothing is lost."""
        if self._loss_threshold == 0:
            return ()
        return loss_inners(self._seed, day, int(protocol), self._retry_attempts)

    def _lost(self, address: int, inners: Tuple[int, ...]) -> bool:
        """I.i.d. loss only; callers check correlated bursts themselves
        (a retransmission inside a burst dies the same way, so bursts
        are not retryable and are counted separately)."""
        if not inners:
            return False
        base = (address & _M64) ^ (address >> 64)
        for attempt, inner in enumerate(inners):
            if mix64(base ^ inner) >= self._loss_threshold:
                self._retry_draws += attempt
                return False
        self._retry_draws += len(inners) - 1
        return True

    def _suppressed(
        self, probed: List[int], protocol: Protocol, day: int
    ) -> FrozenSet[int]:
        """Responders dropped by per-AS rate limiting this scan."""
        plan = self._fault_plan
        if plan is None:
            return frozenset()
        internet = self._internet
        return plan.suppressed_responders(
            probed, protocol, day, lambda address: internet.origin_as(address, day)
        )

    def scan(
        self, targets: Iterable[int], protocol: Protocol, day: int
    ) -> ScanResult:
        """Probe every non-blocked target once with one protocol."""
        plan = self._fault_plan
        if plan is not None and plan.vantage_down(day):
            return ScanResult(
                protocol=protocol, day=day, targets=0, responders=frozenset()
            )
        limited = plan is not None and plan.limits_protocol(protocol)
        probed: List[int] = []
        responders = set()
        count = 0
        burst_suppressed = 0
        rate_limited = 0
        internet = self._internet
        blocklist = self._blocklist
        inners = self._loss_inners(protocol, day)
        for target in targets:
            if blocklist.is_blocked(target):
                continue
            count += 1
            if limited:
                probed.append(target)
            if plan is not None and plan.burst_lost(target, day):
                burst_suppressed += 1
                continue
            if self._lost(target, inners):
                continue
            if internet.responds(target, protocol, day):
                responders.add(target)
        if limited:
            suppressed = self._suppressed(probed, protocol, day)
            rate_limited = len(responders & suppressed)
            responders -= suppressed
        self.probes_sent += count
        self._flush_scan_metrics(
            protocol, count, len(responders), burst_suppressed, rate_limited
        )
        return ScanResult(
            protocol=protocol, day=day, targets=count, responders=frozenset(responders)
        )

    def scan_udp53(
        self, targets: Iterable[int], day: int, qname: str
    ) -> Udp53Result:
        """Probe UDP/53 with an A/AAAA query for ``qname``.

        Responses include GFW forgeries; ZMap's success criterion is
        "any DNS packet came back from the probed address".
        """
        result = Udp53Result(day=day, qname=qname)
        plan = self._fault_plan
        if plan is not None and plan.vantage_down(day):
            return result
        limited = plan is not None and plan.limits_protocol(Protocol.UDP53)
        probed: List[int] = []
        burst_suppressed = 0
        rate_limited = 0
        internet = self._internet
        blocklist = self._blocklist
        inners = self._loss_inners(Protocol.UDP53, day)
        for target in targets:
            if blocklist.is_blocked(target):
                continue
            result.targets += 1
            if limited:
                probed.append(target)
            if plan is not None and plan.burst_lost(target, day):
                burst_suppressed += 1
                continue
            if self._lost(target, inners):
                continue
            responses = internet.dns_probe(target, qname, day)
            if responses:
                result.responders.add(target)
                result.responses[target] = tuple(responses)
        if limited:
            for address in self._suppressed(probed, Protocol.UDP53, day):
                if address in result.responders:
                    rate_limited += 1
                result.responders.discard(address)
                result.responses.pop(address, None)
        self.probes_sent += result.targets
        self._flush_scan_metrics(
            Protocol.UDP53, result.targets, len(result.responders),
            burst_suppressed, rate_limited,
        )
        return result

    def scan_all_protocols(
        self, targets: Iterable[int], day: int, qname: str
    ) -> Tuple[Dict[Protocol, ScanResult], Udp53Result]:
        """Run the full hitlist protocol suite against one target set.

        Equivalent to four :meth:`scan` calls plus :meth:`scan_udp53`,
        but fused into one ground-truth pass per target (see
        :mod:`repro.scan.engine`).  Loss stays independent per (target,
        protocol, day): the four fast probes draw from disjoint 16-bit
        slices of one 64-bit hash.
        """
        engine = self._engine
        if engine is None:
            from repro.scan.engine import ScanEngine

            engine = self._engine = ScanEngine(self)
        return engine.scan_all_protocols(targets, day, qname)
