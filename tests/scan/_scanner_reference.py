"""Frozen scalar reference of the ZMap prober and the APD probe round.

``ZMapScanner`` is the only prober in the package: its fused
five-protocol scan and its APD wave pass both run the columnar chunk
kernels of ``repro.scan.engine`` with bulk loss draws.  This module keeps the per-target
loops they replaced, one protocol per call, so differential tests can
demand identical responder sets, responses, ``probes_sent`` and metric
state from both.  Scanner configuration and metric handles come from
``ZMapScanner``; the loss, burst and rate-limit handling is spelled out
here on purpose, as an independent oracle.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Tuple

from repro._util import mix64
from repro.hitlist.apd import _PROBE_COUNT, AliasedPrefixDetection
from repro.net.prefix import IPv6Prefix
from repro.net.random_addr import spread_addresses
from repro.protocols import Protocol
from repro.scan.loss import loss_inners
from repro.scan.zmap import ScanResult, Udp53Result, ZMapScanner

_M64 = 0xFFFFFFFFFFFFFFFF


class ReferenceScanner(ZMapScanner):
    """``ZMapScanner`` plus the scalar per-protocol scans."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: per-probe loss threshold on the 64-bit draw
        self._loss_threshold = int(self.loss.loss_rate * float(1 << 64))
        #: extra loss re-draws taken since the last metrics flush
        self._retry_draws = 0

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

    def _loss_inners(self, protocol: Protocol, day: int) -> Tuple[int, ...]:
        """Inner loss hashes of one scan; empty when nothing is lost."""
        if self._loss_threshold == 0:
            return ()
        return loss_inners(self.loss.seed, day, int(protocol), self.loss.attempts)

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

        ``responses`` is a plain dict here: responder -> the responses
        ``SimInternet.dns_probe`` returned, GFW forgeries included.
        """
        result = Udp53Result(day=day, qname=qname, responses={})
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


def probe_bitmap(
    apd: AliasedPrefixDetection, prefix: IPv6Prefix, day: int, attempt: int
) -> int:
    """Per-spot responsiveness of one APD round (bit i = subprefix i
    answered), from two plain scans of the prefix's 16 probes.

    ``apd`` must probe through a :class:`ReferenceScanner`.  The probe
    nonce mixes the attempt count so repeated rounds draw independent
    addresses and therefore independent loss.
    """
    probes = spread_addresses(prefix, _PROBE_COUNT, nonce=(day << 4) | (attempt & 0xF))
    bitmap = 0
    icmp = apd._scanner.scan(probes, Protocol.ICMP, day).responders
    tcp = apd._scanner.scan(probes, Protocol.TCP80, day).responders
    for index, address in enumerate(probes):
        if address in icmp or address in tcp:
            bitmap |= 1 << index
    full = (1 << len(probes)) - 1
    if len(probes) < _PROBE_COUNT:
        # prefixes near /128: fewer distinct spots, pad as responsive
        bitmap |= ((1 << _PROBE_COUNT) - 1) ^ full
    return bitmap
