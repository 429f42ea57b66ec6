"""Batched scan engine (the ZMap speed lesson).

The engine is the only prober in the package.  A per-target,
per-protocol prober walks the ground truth once per protocol and looks
up region, host and origin AS again for each walk (the frozen reference
in ``tests/scan/_scanner_reference.py`` still does).  The engine fuses
all of it into one pass:

* :meth:`SimInternet.probe_batch_arrays` answers response mask, origin
  AS and genuine-DNS behavior for a whole chunk in a single column-
  oriented ground-truth walk;
* per-target SplitMix64 loss/retry/injection draws run as bulk big-int
  SIMD over 128-bit lanes (:mod:`repro.scan.vecmix`) instead of one
  finalizer chain per target.

A scan walks its targets in fixed chunks of :data:`DEFAULT_CHUNK_SIZE`,
which bounds the per-chunk column memory.  Each chunk adds its
responders straight into the scan's own accumulators: the four
fast-protocol responder sets, the packed UDP/53
:class:`~repro.scan.responses.ResponseTable`, the control-domain NS
log, the scannable list that per-AS rate limiting reads, and the
count, burst and retry totals.

Determinism contract (what checkpoint/resume and the deterministic
metric families depend on): what a chunk adds is a function of
(scanner configuration, targets, day, qname) alone, and chunks run in
order, each adding in target order — so responder sets (down to their
insertion order, which reaches checkpoint bytes), table rows, metric
counter totals and the control-domain NS log do not depend on where the
chunk boundaries fall.
"""

from __future__ import annotations

import time
from array import array
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro._util import mix64
from repro.net.teredo import TEREDO_PREFIX
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.protocols import DnsAnswer, Protocol, RecordType
from repro.scan.loss import FAST_SALT, loss_inners
from repro.scan.responses import (
    FLAG_INJECTED, GENUINE_BROKEN_ANSWER, GENUINE_NOERROR, GENUINE_NXDOMAIN,
    GENUINE_REFERRAL, GENUINE_REFUSED, GENUINE_SERVFAIL, ResponseTable,
)
from repro.scan.vecmix import (
    LaneKit, bulk_mix64_xor, lane_kit, pack_lanes, survive16, survive64, unpack_lanes,
)
from repro.simnet.gfwsim import _TEREDO_SERVERS, InjectionMode
from repro.simnet.hosts import DnsBehavior
from repro.simnet.internet import ControlNsQuery, SimInternet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scan.scheduler import CarriedScan
    from repro.scan.zmap import ScanResult, Udp53Result, ZMapScanner

_M64 = 0xFFFFFFFFFFFFFFFF
# SplitMix64 finalizer constants (kept in sync with repro._util.mix64,
# inlined in the remaining scalar loops below)
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB
_TEREDO_BASE = TEREDO_PREFIX.value

#: the four cheap protocols probed from one fused 64-bit loss draw, in
#: 16-bit-slice order
FAST_PROTOCOLS = (Protocol.ICMP, Protocol.TCP80, Protocol.TCP443, Protocol.UDP443)

#: every protocol of the fused scan, in metric-recording order
_SCAN_PROTOCOLS = (*FAST_PROTOCOLS, Protocol.UDP53)

#: targets per scan chunk (and probes per APD wave group): small enough
#: to bound per-chunk column memory, large enough that per-chunk
#: overhead is noise
DEFAULT_CHUNK_SIZE = 4096

#: the two protocols of an APD spot check, in answer-mask bit order
_APD_PROTOCOLS = (Protocol.ICMP, Protocol.TCP80)

#: one 0/1 answer byte -> one binary digit, for packing APD bitmaps
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")

#: DnsBehavior -> GENUINE_* code for the behaviors whose response
#: variant does not depend on per-target draws or qname resolution
_BEHAVIOR_CODE = {
    DnsBehavior.NOT_DNS: GENUINE_REFUSED,
    DnsBehavior.AUTH_OR_CLOSED: GENUINE_REFUSED,
    DnsBehavior.REFERRAL: GENUINE_REFERRAL,
}


class _ScanContext:
    """Per-(scanner, day, qname) constants hoisted out of the hot loop."""

    __slots__ = (
        "attempts", "loss_threshold", "threshold16", "fast_inner",
        "udp_inner", "inject_possible", "resolved", "is_control", "mday",
        "inject_day_hash", "burst_cut", "inj_ranges",
    )

    def __init__(self, scanner: "ZMapScanner", day: int, qname: str) -> None:
        internet = scanner._internet
        self.attempts = scanner._retry_attempts
        self.loss_threshold = scanner._loss_threshold
        self.threshold16 = int(scanner._loss_rate * 65536.0)
        # inner mix64 of the loss formulas: constant per (day, attempt)
        seed = scanner._seed
        self.fast_inner = loss_inners(seed, day, FAST_SALT, self.attempts)
        self.udp_inner = loss_inners(seed, day, int(Protocol.UDP53), self.attempts)
        gfw = internet.gfw
        self.inject_possible = (
            gfw.active_era(day) is not None and gfw.is_blocked(qname)
        )
        # injection-draw constants (GreatFirewall.inject_prepared, hoisted)
        self.inject_day_hash = mix64(day ^ gfw._seed)
        # kept as float: inject_prepared compares the modulus against
        # probability*1e6 unrounded, and the boundary draw must agree
        self.burst_cut = gfw._burst_probability * 1_000_000
        self.inj_ranges = tuple(
            (base, (1 << (32 - length)) - 1)
            for base, length, _owner in gfw._pool.ranges
        )
        self.resolved = internet.resolve_name(qname)
        self.is_control = internet._is_control_name(qname)
        self.mday = mix64(day)


def _response_table(internet: SimInternet, day: int, qname: str) -> ResponseTable:
    """An empty response table for one scan of ``qname`` on ``day``."""
    era = internet.gfw.active_era(day)
    return ResponseTable(
        qname,
        tuple(
            DnsAnswer(rtype=RecordType.AAAA, address=address)
            for address in internet.resolve_name(qname)
        ),
        wide=era is not None and era.mode is not InjectionMode.A_RECORD,
    )


class _ScanSink:
    """What one fused scan has found so far.

    Each chunk adds its targets' outcomes here in target order, and
    chunks run in order, so every set, row and log entry arrives in the
    same sequence for any chunk boundaries.
    """

    __slots__ = (
        "fast", "table", "scannable", "control_log", "count",
        "burst_targets", "retry_draws",
    )

    def __init__(
        self,
        table: ResponseTable,
        scannable: Optional[List[int]],
        control_log: List[ControlNsQuery],
    ) -> None:
        #: responders per fast protocol, in FAST_PROTOCOLS order
        self.fast: List[set] = [set(), set(), set(), set()]
        #: the scan's UDP/53 hits
        self.table = table
        #: non-blocked targets, kept only when per-AS rate limiting
        #: needs the probed list
        self.scannable = scannable
        #: the simulated world's control-domain NS log
        self.control_log = control_log
        self.count = 0
        self.burst_targets = 0
        self.retry_draws = 0


def _scan_chunk(
    scanner: "ZMapScanner",
    targets: Sequence[int],
    day: int,
    qname: str,
    ctx: _ScanContext,
    sink: _ScanSink,
    crosses_cache: Dict[Optional[int], bool],
) -> None:
    """Fused five-protocol scan of one chunk, added to ``sink``.

    Per target: blocklist, then correlated bursts (every probe lost,
    not retryable), then the :func:`repro.scan.loss.loss_inners` draws
    per attempt, then the GFW injection draws.  Bit for bit what one
    single-protocol scan per protocol gives (the frozen reference
    prober in ``tests/scan/_scanner_reference.py``).  The outcome
    depends only on (scanner configuration, targets, day, qname);
    besides ``sink`` only ``crosses_cache`` (a memo of the pure
    ``GfwBoundary.crosses``) is mutated.
    """
    internet = scanner._internet
    plan = scanner._fault_plan

    if len(scanner._blocklist):
        is_blocked = scanner._blocklist.is_blocked
        live = [target for target in targets if not is_blocked(target)]
    else:
        live = targets
    if sink.scannable is not None:
        sink.scannable.extend(live)
    sink.count += len(live)

    # correlated loss bursts kill every probe of a target at once and
    # are not retryable — drop those targets before any draw
    if plan is not None:
        burst_lost = plan.burst_lost
        kept = [target for target in live if not burst_lost(target, day)]
        sink.burst_targets += len(live) - len(kept)
        live = kept

    n = len(live)
    if n == 0:
        return

    masks, asns, behaviors = internet.probe_batch_arrays(live, day, qname)

    # bulk SplitMix64: one 64-bit base per target, padded to a
    # power-of-two lane count so the LaneKit memo stays tiny
    attempts = ctx.attempts
    threshold16 = ctx.threshold16
    loss_threshold = ctx.loss_threshold
    size = 1 << (n - 1).bit_length() if n > 1 else 1
    kit = lane_kit(size)
    bases = [(target & _M64) ^ (target >> 64) for target in live]
    if size != n:
        bases.extend([0] * (size - n))
    packed = pack_lanes(bases)

    if threshold16:
        nibs = [
            survive16(bulk_mix64_xor(packed, inner, kit), threshold16, kit)
            for inner in ctx.fast_inner
        ]
        nib0 = nibs[0]
    else:
        nib0 = b"\x0f" * n
        nibs = [nib0]
    if loss_threshold:
        oks = [
            survive64(bulk_mix64_xor(packed, inner, kit), loss_threshold, kit)
            for inner in ctx.udp_inner
        ]
        ok0 = oks[0]
    else:
        ok0 = b"\x01" * n
        oks = [ok0]

    inject_possible = ctx.inject_possible
    if inject_possible:
        inj_draws = unpack_lanes(
            bulk_mix64_xor(packed, ctx.inject_day_hash, kit), kit
        )
        crosses = internet.gfw._boundary.crosses
        burst_cut = ctx.burst_cut
        inj_xor: List[int] = []

    # genuine-DNS variant codes that need no per-target work
    behavior_code = _BEHAVIOR_CODE
    open_code = GENUINE_NOERROR if ctx.resolved else GENUINE_NXDOMAIN
    logs_control = ctx.is_control and open_code == GENUINE_NOERROR
    log_append = sink.control_log.append
    mday = ctx.mday
    single = attempts == 1

    f0_add, f1_add, f2_add, f3_add = (found.add for found in sink.fast)
    udp_hits: List[int] = []
    udp_metas = bytearray()
    inj_counts: List[int] = []
    udp_hits_append = udp_hits.append
    udp_metas_append = udp_metas.append
    inj_counts_append = inj_counts.append
    retry_draws = 0

    for i, (target, mask, behavior, s, ok) in enumerate(
        zip(live, masks, behaviors, nib0, ok0)
    ):
        # fast protocols: four probes drawn from disjoint 16-bit slices
        # of one 64-bit hash
        if mask:
            if not single and threshold16 and s != 0b1111:
                for attempt in range(1, attempts):
                    s |= nibs[attempt][i]
                    if s == 0b1111:
                        retry_draws += attempt
                        break
                else:
                    retry_draws += attempts - 1
            if s & 1 and mask & 1:  # ICMP
                f0_add(target)
            if s & 2 and mask & 2:  # TCP80
                f1_add(target)
            if s & 4 and mask & 4:  # TCP443
                f2_add(target)
            if s & 8 and mask & 16:  # UDP443
                f3_add(target)

        # UDP/53: loss is drawn for every non-burst target (the GFW can
        # inject even when the target itself is dead); the first
        # surviving attempt keeps the probe
        if not ok:
            lost = True
            for attempt in range(1, attempts):
                if oks[attempt][i]:
                    retry_draws += attempt
                    lost = False
                    break
            else:
                retry_draws += attempts - 1
            if lost:
                continue

        meta = 0
        if inject_possible:
            asn = asns[i]
            crossing = crosses_cache.get(asn)
            if crossing is None:
                crossing = crosses(asn)
                crosses_cache[asn] = crossing
            if crossing:
                meta = FLAG_INJECTED
                base_draw = inj_draws[i]
                count = 2 + base_draw % 2  # two or three injectors answer
                if (base_draw >> 32) % 1_000_000 < burst_cut:
                    count = 64 + base_draw % 400  # rare pathological bursts
                inj_counts_append(count)
                inj_xor.append((base_draw, count))

        if behavior is not None:
            code = behavior_code.get(behavior)
            if code is not None:
                meta |= code
            elif behavior is DnsBehavior.BROKEN:
                # SimInternet._answer_as: parity of mix64(target ^ mix64(day))
                value = (target ^ mday) & _M64
                value = ((value ^ (value >> 30)) * _MIX_C1) & _M64
                value = ((value ^ (value >> 27)) * _MIX_C2) & _M64
                if (value ^ (value >> 31)) % 2:
                    meta |= GENUINE_SERVFAIL
                else:
                    meta |= GENUINE_BROKEN_ANSWER
            else:  # open / proxy resolver
                meta |= open_code
                if logs_control:
                    # a proxy resolver queries the authority from its
                    # own egress address
                    egress = target
                    if behavior is DnsBehavior.PROXY_RESOLVER:
                        egress ^= mix64(target) & 0xFFFF
                    log_append(ControlNsQuery(qname=qname, source=egress))

        if meta:
            udp_hits_append(target)
            udp_metas_append(meta)

    sink.retry_draws += retry_draws

    # second bulk pass: the per-response injection draws.  The draw for
    # response k of a target is mix64(base_draw ^ (k+1)) — flatten all
    # (target, k) pairs, mix them in lanes, then map draws to payload
    # ints (A-record IPv4s, or full Teredo AAAA addresses as lo/hi).
    payloads = array("Q")
    if inject_possible and inj_xor:
        flat: List[int] = []
        for base_draw, count in inj_xor:
            flat.extend(base_draw ^ k for k in range(1, count + 1))
        total = len(flat)
        size = 1 << (total - 1).bit_length() if total > 1 else 1
        kit = lane_kit(size)
        if size != total:
            flat.extend([0] * (size - total))
        draws = unpack_lanes(bulk_mix64_xor(pack_lanes(flat), 0, kit), kit)
        ranges = ctx.inj_ranges
        nranges = len(ranges)
        payloads_append = payloads.append
        if sink.table.wide:
            servers = _TEREDO_SERVERS
            for j in range(total):
                draw = draws[j]
                base, host_mask = ranges[draw % nranges]
                ipv4 = base | (draw >> 8) & host_mask
                # inlined encode_teredo (flags=0, fields in range by
                # construction): server/port/client in RFC 4380 layout
                port = 1024 + (draw >> 16) % 60000
                address = (
                    _TEREDO_BASE
                    | (servers[draw % 2] << 64)
                    | ((port ^ 0xFFFF) << 32)
                    | (ipv4 ^ 0xFFFFFFFF)
                )
                payloads_append(address & _M64)
                payloads_append(address >> 64)
        else:
            for j in range(total):
                draw = draws[j]
                base, host_mask = ranges[draw % nranges]
                payloads_append(base | (draw >> 8) & host_mask)
    sink.table.extend(udp_hits, udp_metas, inj_counts, payloads)


class ScanEngine:
    """Runs the fused five-protocol scan of one scanner, chunk by chunk.

    See the module docstring for the determinism contract.
    """

    def __init__(
        self,
        scanner: "ZMapScanner",
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        vantage: Optional[str] = None,
    ) -> None:
        self._scanner = scanner
        self._tracer = tracer
        #: fleet member this engine scans for; labels its probe spans so
        #: traces of a multi-vantage campaign attribute chunk time
        self._vantage = vantage
        self._span_attrs = {"vantage": vantage} if vantage is not None else {}
        #: GfwBoundary.crosses memo — day-independent, lives for the
        #: whole campaign
        self._crosses_cache: Dict[Optional[int], bool] = {}
        self._m_chunks = None
        if metrics is not None:
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

    # ------------------------------------------------------------------
    # scanning

    def scan_all_protocols(
        self, targets: Sequence[int], day: int, qname: str,
        carried: Optional["CarriedScan"] = None,
    ) -> Tuple[Dict[Protocol, "ScanResult"], "Udp53Result"]:
        """Fused scan of all five hitlist protocols over one target set.

        Backs ``ZMapScanner.scan_all_protocols``.  Responder sets,
        metric totals, retry/burst accounting and the control-NS log are
        identical for any chunk size.

        ``carried`` (from the incremental scheduler) folds previously
        probed responders into the results without probing them:
        their addresses join the responder sets and target counts after
        the probe metrics flush, so ``repro_probes_sent_total`` reflects
        only real probes.  Carried UDP/53 responders have no row in the
        response table — injection re-attribution happens in the
        scheduler's ``absorb`` step.
        """
        from repro.scan.zmap import ScanResult, Udp53Result

        scanner = self._scanner
        plan = scanner._fault_plan
        table = _response_table(scanner._internet, day, qname)
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
            for protocol in _SCAN_PROTOCOLS
        )
        sink = _ScanSink(
            table, [] if limited else None, scanner._internet.control_ns_log
        )
        chunks = self._run_chunks(targets, day, qname, sink)
        fast_sets = sink.fast
        count = sink.count
        udp53.targets = count
        udp53.responders.update(table)

        # per-AS rate limiting needs the full probed list, so it runs
        # after the last chunk (identical to the pre-engine per-scan
        # ordering); responders dropped per protocol, in _SCAN_PROTOCOLS
        # order
        rate_limited = [0] * len(_SCAN_PROTOCOLS)
        if limited:
            internet = scanner._internet
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

        if self._m_chunks is not None:
            self._m_chunks.inc(chunks)
            self._m_fused_targets.inc(count)
        _record_probes(
            scanner, _SCAN_PROTOCOLS, count, sink.burst_targets,
            sink.retry_draws,
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
        self, targets: List[int], day: int, qname: str, sink: _ScanSink
    ) -> int:
        """Scan ``targets`` into ``sink`` in chunk order; the chunk count."""
        if not targets:
            return 0
        scanner = self._scanner
        ctx = _ScanContext(scanner, day, qname)
        tracer = self._tracer
        observe = (
            self._m_chunk_seconds.observe if self._m_chunks is not None else None
        )
        chunk_size = DEFAULT_CHUNK_SIZE
        starts = range(0, len(targets), chunk_size)
        for index, start in enumerate(starts):
            began = time.perf_counter()
            with (
                tracer.span("probe-chunk", day=day, chunk=index, **self._span_attrs)
                if tracer is not None else nullcontext()
            ):
                _scan_chunk(
                    scanner, targets[start:start + chunk_size], day, qname,
                    ctx, sink, self._crosses_cache,
                )
            if observe is not None:
                observe(time.perf_counter() - began)
        return len(starts)


def _record_probes(
    scanner: "ZMapScanner",
    protocols: Sequence[Protocol],
    count: int,
    burst_targets: int,
    retry_draws: int,
    hits: Sequence[int],
    rate_limited: Sequence[int],
) -> None:
    """Record one scan's (or APD wave's) probes into the scanner's metrics.

    Each of ``count`` scannable targets got one probe per protocol; a
    burst target lost all of them.  ``hits`` and ``rate_limited`` run
    parallel to ``protocols``.
    """
    scanner.probes_sent += len(protocols) * count
    if scanner._metrics is None:
        return
    if retry_draws:
        scanner._m_retries.inc(retry_draws)
    if burst_targets:
        scanner._m_burst.inc(len(protocols) * burst_targets)
    for protocol, hit_count, limited in zip(protocols, hits, rate_limited):
        label = protocol.label
        scanner._m_probes.labels(protocol=label).inc(count)
        scanner._m_hits.labels(protocol=label).inc(hit_count)
        if limited:
            scanner._m_rate_limited.labels(protocol=label).inc(limited)


def apd_wave_bitmaps(
    scanner: "ZMapScanner",
    probe_lists: Sequence[Sequence[int]],
    day: int,
) -> List[int]:
    """ICMP + TCP/80 answer bitmaps for a wave of APD probe lists.

    Bit ``i`` of entry ``p`` is set when probe ``i`` of ``probe_lists[p]``
    answered ICMP or TCP/80.  Each entry is what an ICMP and a TCP/80
    scan of that list alone report — same loss draws, retry-draw
    accounting, burst counting, per-list rate limiting, ``probes_sent``
    and metric totals — but lists are probed in groups
    of at most :data:`DEFAULT_CHUNK_SIZE` probes: one mask-only
    ground-truth walk and one bulk loss draw per (protocol, attempt)
    per group.  Metrics flush once per wave.
    """
    if not probe_lists:
        return []
    plan = scanner._fault_plan
    if plan is not None and plan.vantage_down(day):
        # an outage sends no probe and records no metric
        return [0] * len(probe_lists)
    wave = _ApdWave(scanner, day)
    bitmaps: List[int] = []
    group: List[Sequence[int]] = []
    size = 0
    for probes in probe_lists:
        if size + len(probes) > DEFAULT_CHUNK_SIZE and group:
            bitmaps.extend(wave.probe(group))
            group, size = [], 0
        group.append(probes)
        size += len(probes)
    bitmaps.extend(wave.probe(group))
    _record_probes(
        scanner, _APD_PROTOCOLS, wave.count, wave.burst, wave.retry_draws,
        wave.hits, wave.rate_limited,
    )
    return bitmaps


class _ApdWave:
    """Per-(scanner, day) state and probe totals of one
    :func:`apd_wave_bitmaps` call."""

    def __init__(self, scanner: "ZMapScanner", day: int) -> None:
        self.scanner = scanner
        self.day = day
        plan = scanner._fault_plan
        self.plan = plan
        self.burst_lost = plan.burst_lost if plan is not None and plan.bursts else None
        self.limits = tuple(
            plan is not None and plan.limits_protocol(protocol)
            for protocol in _APD_PROTOCOLS
        )
        self.loss_threshold = scanner._loss_threshold
        self.inners = tuple(
            loss_inners(scanner._seed, day, int(protocol), scanner._retry_attempts)
            for protocol in _APD_PROTOCOLS
        )
        self.count = 0
        self.burst = 0
        self.retry_draws = 0
        self.hits = [0, 0]
        self.rate_limited = [0, 0]

    def probe(self, group: List[Sequence[int]]) -> List[int]:
        """Bitmaps for one group of probe lists (one chunk of probes)."""
        scanner = self.scanner
        day = self.day
        flat: List[int] = []
        for probes in group:
            flat.extend(probes)
        n = len(flat)
        # on-wire flags (1 per probe that is neither blocked nor
        # swallowed by a burst); None when every probe goes out
        wire_flags: Optional[bytearray] = None
        blocklist = scanner._blocklist
        burst_lost = self.burst_lost
        if len(blocklist) or burst_lost is not None:
            is_blocked = blocklist.is_blocked if len(blocklist) else None
            wire_flags = bytearray(n)
            on_wire: List[int] = []
            positions: List[int] = []
            scannable = 0
            burst = 0
            for position, probe in enumerate(flat):
                if is_blocked is not None and is_blocked(probe):
                    continue
                scannable += 1
                if burst_lost is not None and burst_lost(probe, day):
                    burst += 1
                    continue
                wire_flags[position] = 1
                on_wire.append(probe)
                positions.append(position)
            self.count += scannable
            self.burst += burst
            masks = bytearray(n)
            for position, mask in zip(
                positions, scanner._internet.probe_masks(on_wire, day)
            ):
                masks[position] = mask
        else:
            self.count += n
            masks = scanner._internet.probe_masks(flat, day)
        answers = int.from_bytes(masks, "little")

        # per probe and protocol: 1 in the probe's byte when a probe of
        # that protocol survives loss (retries included)
        if self.loss_threshold:
            size = 1 << (n - 1).bit_length() if n > 1 else 1
            kit = lane_kit(size)
            bases = [(probe & _M64) ^ (probe >> 64) for probe in flat]
            if size != n:
                bases.extend([0] * (size - n))
            packed = pack_lanes(bases)
            survived = [
                self._survivors(packed, inners, kit, n, wire_flags)
                for inners in self.inners
            ]
        else:
            survived = [int.from_bytes(b"\x01" * n, "little")] * 2
        icmp_hits = answers & survived[0]
        tcp_hits = (answers >> 1) & survived[1]

        if self.limits[0] or self.limits[1]:
            icmp_hits, tcp_hits = self._rate_limit(group, n, icmp_hits, tcp_hits)
        self.hits[0] += icmp_hits.bit_count()
        self.hits[1] += tcp_hits.bit_count()
        bits = (icmp_hits | tcp_hits).to_bytes(n, "little").translate(_BIT_CHARS)
        bitmaps: List[int] = []
        offset = 0
        for probes in group:
            end = offset + len(probes)
            bitmaps.append(int(bits[offset:end][::-1], 2) if end > offset else 0)
            offset = end
        return bitmaps

    def _survivors(
        self,
        packed: int,
        inners: Tuple[int, ...],
        kit: LaneKit,
        n: int,
        wire_flags: Optional[bytearray],
    ) -> int:
        """Loss survivors of one protocol, one 0/1 byte per probe.

        A probe survives when any attempt draws at or above the
        threshold, and adds the index of its first surviving attempt
        (``attempts - 1`` when all are lost) to the retry draws —
        counted only for probes that went on the wire.
        """
        threshold = self.loss_threshold
        first = survive64(bulk_mix64_xor(packed, inners[0], kit), threshold, kit)
        if len(inners) == 1:
            return int.from_bytes(first[:n], "little")
        retries = [
            survive64(bulk_mix64_xor(packed, inner, kit), threshold, kit)
            for inner in inners[1:]
        ]
        merged = bytearray(first[:n])
        draws = 0
        lost = merged.find(0)
        while lost >= 0:
            if wire_flags is None or wire_flags[lost]:
                for attempt, retry in enumerate(retries, 1):
                    if retry[lost]:
                        draws += attempt
                        merged[lost] = 1
                        break
                else:
                    draws += len(retries)
            lost = merged.find(0, lost + 1)
        self.retry_draws += draws
        return int.from_bytes(merged, "little")

    def _rate_limit(
        self, group: List[Sequence[int]], n: int, icmp_hits: int, tcp_hits: int
    ) -> Tuple[int, int]:
        """Drop rate-limited responders, list by list (each list is one scan)."""
        scanner = self.scanner
        internet = scanner._internet
        day = self.day
        blocklist = scanner._blocklist
        hit_bytes = [
            bytearray(icmp_hits.to_bytes(n, "little")),
            bytearray(tcp_hits.to_bytes(n, "little")),
        ]

        def origin(address: int) -> Optional[int]:
            return internet.origin_as(address, day)

        offset = 0
        for probes in group:
            scannable = [probe for probe in probes if not blocklist.is_blocked(probe)]
            for index, protocol in enumerate(_APD_PROTOCOLS):
                if not self.limits[index]:
                    continue
                suppressed = self.plan.suppressed_responders(
                    scannable, protocol, day, origin
                )
                hits = hit_bytes[index]
                for position, probe in enumerate(probes, offset):
                    if hits[position] and probe in suppressed:
                        hits[position] = 0
                        self.rate_limited[index] += 1
            offset += len(probes)
        return (
            int.from_bytes(hit_bytes[0], "little"),
            int.from_bytes(hit_bytes[1], "little"),
        )
