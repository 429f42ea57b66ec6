"""A ZMapv6-like scanner over the simulated internet.

One probe module per hitlist protocol (ICMP echo, TCP SYN 80/443, UDP
DNS 53, QUIC initial 443).  The scanner adds the real-world artefact the
oracle does not model: per-probe packet loss, deterministic per
(address, protocol, day) so re-running a scan reproduces it while
*different* scans lose different probes — exactly the noise the APD's
merge-with-previous-scans logic exists to absorb.

:class:`ZMapScanner` is one vantage's prober: it holds the vantage's
configuration (world, blocklist, loss model, fault plan), its probe
counter, metric handles and tracer, and runs the fused scan and the
APD's probe waves over the kernels in :mod:`repro.scan.engine`.

Like the real ZMap, the UDP/53 module counts **any** DNS response from
the target's address as success — which is precisely how GFW-injected
forgeries poison the hitlist (Sec. 4.2).
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.protocols import APD_PROTOCOLS, Protocol
from repro.runtime.faults import FaultPlan, RetryPolicy
from repro.scan import engine
from repro.scan.blocklist import Blocklist
from repro.scan.engine import FAST_PROTOCOLS, SCAN_PROTOCOLS
from repro.scan.loss import LossModel
from repro.scan.responses import ResponseTable
from repro.simnet.internet import SimInternet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scan.scheduler import CarriedScan


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
    """One vantage's prober: configuration, probe counter, metric
    handles and tracer.

    :meth:`scan_all_protocols` runs the fused five-protocol scan chunk
    by chunk, and :meth:`apd_wave_bitmaps` the APD's ICMP + TCP/80
    spot checks; both count their probes in :attr:`probes_sent` and
    the scanner's metrics.  ``tracer`` records one ``probe-chunk`` span
    per chunk, labelled with ``vantage`` when given (a fleet member
    passes its id).
    See :mod:`repro.scan.engine` for the determinism contract.
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
        tracer: Optional[Tracer] = None,
        vantage: Optional[str] = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate out of range: {loss_rate}")
        self._internet = internet
        self._blocklist = blocklist or Blocklist()
        #: per-probe loss, retries and loss bursts
        self.loss = LossModel(
            seed, loss_rate, 1 if retry is None else retry.attempts, fault_plan
        )
        self._fault_plan = fault_plan
        self.probes_sent = 0
        self._metrics = metrics
        self._tracer = tracer
        self._span_attrs = {"vantage": vantage} if vantage is not None else {}
        #: GfwBoundary.crosses memo — day-independent, lives for the
        #: whole campaign
        self._crosses_cache: Dict[Optional[int], bool] = {}
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
            # volatile: the chunk count and durations describe how the
            # scan was cut, not what it found
            self._m_chunks = metrics.counter(
                "repro_engine_chunks_total",
                "Fused scan chunks processed by the scan engine.",
                volatile=True)
            self._m_fused_targets = metrics.counter(
                "repro_engine_fused_targets_total",
                "Targets answered by the fused ground-truth pass.")
            self._m_chunk_seconds = metrics.histogram(
                "repro_engine_chunk_seconds",
                "Wall-clock duration per scan-engine chunk.", volatile=True)

    @property
    def blocklist(self) -> Blocklist:
        """The blocklist honoured by every probe."""
        return self._blocklist

    def scan_all_protocols(
        self, targets: Iterable[int], day: int, qname: str,
        carried: Optional["CarriedScan"] = None,
    ) -> Tuple[Dict[Protocol, ScanResult], Udp53Result]:
        """Fused scan of all five hitlist protocols over one target set.

        One ground-truth pass per target.  Loss stays independent per
        (target, protocol, day): the four fast probes draw from disjoint
        16-bit slices of one 64-bit hash, UDP/53 from its own 64-bit
        draw.  Responder sets, metric totals, retry/burst accounting and
        the control-NS log are identical for any chunk size.

        ``carried`` (from the incremental scheduler) folds previously
        probed responders into the results without probing them:
        their addresses join the responder sets and target counts after
        the probe metrics flush, so ``repro_probes_sent_total`` reflects
        only real probes.  Carried UDP/53 responders have no row in the
        response table — injection re-attribution happens in the
        scheduler's ``absorb`` step.
        """
        plan = self._fault_plan
        internet = self._internet
        table = engine._response_table(internet, day, qname)
        udp53 = Udp53Result(day=day, qname=qname, responses=table)
        if plan is not None and plan.vantage_down(day):
            empty = {
                protocol: ScanResult(
                    protocol=protocol, day=day, targets=0, responders=frozenset()
                )
                for protocol in FAST_PROTOCOLS
            }
            return empty, udp53

        if not isinstance(targets, list):
            targets = list(targets)
        limited = plan is not None and any(
            plan.limits_protocol(protocol)
            for protocol in SCAN_PROTOCOLS
        )
        sink = engine._ScanSink(
            table, [] if limited else None, internet.control_ns_log
        )
        chunks = self._run_chunks(targets, day, qname, sink)
        fast_sets = sink.fast
        count = sink.count
        udp53.targets = count
        udp53.responders.update(table)

        # per-AS rate limiting needs the full probed list, so it runs
        # after the last chunk; responders dropped per protocol, in
        # SCAN_PROTOCOLS order
        rate_limited = [0] * len(SCAN_PROTOCOLS)
        if limited:
            scannable = sink.scannable

            def origin(address: int) -> Optional[int]:
                return internet.origin_as(address, day)

            for index, protocol in enumerate(FAST_PROTOCOLS):
                if plan.limits_protocol(protocol):
                    suppressed = plan.suppressed_responders(
                        scannable, protocol, day, origin
                    )
                    rate_limited[index] = len(fast_sets[index] & suppressed)
                    fast_sets[index] -= suppressed
            if plan.limits_protocol(Protocol.UDP53):
                for address in plan.suppressed_responders(
                    scannable, Protocol.UDP53, day, origin
                ):
                    if address in udp53.responders:
                        rate_limited[-1] += 1
                    udp53.responders.discard(address)
                    table.drop(address)

        if self._metrics is not None:
            self._m_chunks.inc(chunks)
            self._m_fused_targets.inc(count)
        self._record_probes(
            SCAN_PROTOCOLS, count, sink.burst_targets, sink.retry_draws,
            [len(found) for found in fast_sets] + [len(udp53.responders)],
            rate_limited,
        )
        if carried is not None and carried.targets:
            count += carried.targets
            for found, replayed in zip(fast_sets, carried.fast):
                found |= replayed
            udp53.responders |= carried.udp_responders
            udp53.targets = count
        results = {
            protocol: ScanResult(
                protocol=protocol, day=day, targets=count,
                responders=frozenset(fast_sets[index]),
            )
            for index, protocol in enumerate(FAST_PROTOCOLS)
        }
        return results, udp53

    def _run_chunks(
        self, targets: List[int], day: int, qname: str, sink: "engine._ScanSink"
    ) -> int:
        """Scan ``targets`` into ``sink`` in chunk order; the chunk count."""
        if not targets:
            return 0
        ctx = engine._ScanContext(
            self._internet, self._blocklist, self.loss.on(day),
            self._crosses_cache, qname,
        )
        tracer = self._tracer
        observe = (
            self._m_chunk_seconds.observe if self._metrics is not None else None
        )
        # looked up at scan time, not imported, so a chunk size set on
        # repro.scan.engine takes effect here too
        chunk_size = engine.DEFAULT_CHUNK_SIZE
        starts = range(0, len(targets), chunk_size)
        for index, start in enumerate(starts):
            began = time.perf_counter()
            with (
                tracer.span("probe-chunk", day=day, chunk=index, **self._span_attrs)
                if tracer is not None else nullcontext()
            ):
                engine._scan_chunk(targets[start:start + chunk_size], ctx, sink)
            if observe is not None:
                observe(time.perf_counter() - began)
        return len(starts)

    def apd_wave_bitmaps(
        self, probe_lists: Sequence[Sequence[int]], day: int
    ) -> List[int]:
        """ICMP + TCP/80 answer bitmaps for a wave of APD probe lists.

        Bit ``i`` of entry ``p`` is set when probe ``i`` of
        ``probe_lists[p]`` answered ICMP or TCP/80.  Each entry is what
        an ICMP and a TCP/80 scan of that list alone report — same loss
        draws, retry-draw accounting, burst counting, per-list rate
        limiting, ``probes_sent`` and metric totals — but lists are
        probed in groups of at most
        :data:`~repro.scan.engine.DEFAULT_CHUNK_SIZE` probes: one
        mask-only ground-truth walk and one bulk loss draw per
        (protocol, attempt) per group.  Metrics flush once per wave.
        """
        if not probe_lists:
            return []
        plan = self._fault_plan
        if plan is not None and plan.vantage_down(day):
            # an outage sends no probe and records no metric
            return [0] * len(probe_lists)
        wave = engine._ApdWave(
            self._internet, self._blocklist, plan, self.loss.on(day)
        )
        bitmaps = wave.bitmaps(probe_lists)
        self._record_probes(
            APD_PROTOCOLS, wave.count, wave.burst, wave.retry_draws,
            wave.hits, wave.rate_limited,
        )
        return bitmaps

    def _record_probes(
        self,
        protocols: Sequence[Protocol],
        count: int,
        burst_targets: int,
        retry_draws: int,
        hits: Sequence[int],
        rate_limited: Sequence[int],
    ) -> None:
        """Record one scan's (or APD wave's) probes.

        Each of ``count`` scannable targets got one probe per protocol; a
        burst target lost all of them.  ``hits`` and ``rate_limited`` run
        parallel to ``protocols``.
        """
        self.probes_sent += len(protocols) * count
        if self._metrics is None:
            return
        if retry_draws:
            self._m_retries.inc(retry_draws)
        if burst_targets:
            self._m_burst.inc(len(protocols) * burst_targets)
        for protocol, hit_count, limited in zip(protocols, hits, rate_limited):
            label = protocol.label
            self._m_probes.labels(protocol=label).inc(count)
            self._m_hits.labels(protocol=label).inc(hit_count)
            if limited:
                self._m_rate_limited.labels(protocol=label).inc(limited)
