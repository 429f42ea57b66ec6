"""Fused scan kernels (the ZMap speed lesson).

:class:`~repro.scan.zmap.ZMapScanner` is the only prober in the
package; this module holds the kernels it runs.  A per-target,
per-protocol prober walks the ground truth once per protocol and looks
up region, host and origin AS again for each walk (the frozen reference
in ``tests/scan/_scanner_reference.py`` still does).  The fused scan
does all of it in one pass:

* :meth:`SimInternet.probe_batch_arrays` answers response mask, origin
  AS and genuine-DNS behavior for a whole chunk in a single column-
  oriented ground-truth walk;
* per-target SplitMix64 loss/retry/injection draws run as bulk big-int
  SIMD over 128-bit lanes (:mod:`repro.scan.vecmix`) instead of one
  finalizer chain per target; the loss draws, retries and bursts come
  from the scanner's :class:`~repro.scan.loss.LossModel`.

A scan walks its targets in fixed chunks of :data:`DEFAULT_CHUNK_SIZE`,
which bounds the per-chunk column memory.  :func:`_scan_chunk` adds
each chunk's responders straight into the scan's own accumulators
(:class:`_ScanSink`): the four fast-protocol responder sets, the packed
UDP/53 :class:`~repro.scan.responses.ResponseTable`, the control-domain
NS log, the scannable list that per-AS rate limiting reads, and the
count, burst and retry totals.  Everything a chunk reads of its vantage
comes in the :class:`_ScanContext` the scanner builds per scan.
:class:`_ApdWave` is the APD's two-protocol counterpart.

Determinism contract (what checkpoint/resume and the deterministic
metric families depend on): what a chunk adds is a function of
(scanner configuration, targets, day, qname) alone, and chunks run in
order, each adding in target order — so responder sets (down to their
insertion order, which reaches checkpoint bytes), table rows, metric
counter totals and the control-domain NS log do not depend on where the
chunk boundaries fall.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro._util import mix64
from repro.net.teredo import TEREDO_PREFIX
from repro.protocols import APD_PROTOCOLS, DnsAnswer, Protocol, RecordType
from repro.runtime.faults import FaultPlan
from repro.scan.blocklist import Blocklist
from repro.scan.loss import Lanes, LossDay
from repro.scan.responses import (
    FLAG_INJECTED, GENUINE_BROKEN_ANSWER, GENUINE_NOERROR, GENUINE_NXDOMAIN,
    GENUINE_REFERRAL, GENUINE_REFUSED, GENUINE_SERVFAIL, ResponseTable,
)
from repro.scan.vecmix import bulk_mix64_xor, lane_kit, pack_lanes, unpack_lanes
from repro.simnet.gfwsim import _TEREDO_SERVERS, InjectionMode
from repro.simnet.hosts import DnsBehavior
from repro.simnet.internet import ControlNsQuery, SimInternet

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
SCAN_PROTOCOLS = (*FAST_PROTOCOLS, Protocol.UDP53)

#: targets per scan chunk (and probes per APD wave group): small enough
#: to bound per-chunk column memory, large enough that per-chunk
#: overhead is noise
DEFAULT_CHUNK_SIZE = 4096

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
    """What the chunks of one fused scan read: the vantage's world,
    blocklist and loss model for the day, its GFW-crossing memo, and
    the per-(day, qname) constants hoisted out of the hot loop."""

    __slots__ = (
        "internet", "is_blocked", "loss", "crosses_cache", "qname",
        "inject_possible", "resolved", "is_control", "mday",
        "inject_day_hash", "burst_cut", "inj_ranges",
    )

    def __init__(
        self,
        internet: SimInternet,
        blocklist: Blocklist,
        loss: LossDay,
        crosses_cache: Dict[Optional[int], bool],
        qname: str,
    ) -> None:
        day = loss.day
        self.internet = internet
        self.is_blocked = blocklist.is_blocked if len(blocklist) else None
        self.loss = loss
        #: GfwBoundary.crosses memo — day-independent, owned by the
        #: scanner and kept for the whole campaign
        self.crosses_cache = crosses_cache
        self.qname = qname
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
    targets: Sequence[int], ctx: _ScanContext, sink: _ScanSink
) -> None:
    """Fused five-protocol scan of one chunk, added to ``sink``.

    Per target: blocklist, then correlated bursts (every probe lost,
    not retryable), then the loss draws of every attempt, then the GFW
    injection draws.  Bit for bit what one
    single-protocol scan per protocol gives (the frozen reference
    prober in ``tests/scan/_scanner_reference.py``).  The outcome
    depends only on (scanner configuration, targets, day, qname);
    besides ``sink`` only ``ctx.crosses_cache`` (a memo of the pure
    ``GfwBoundary.crosses``) is mutated.
    """
    internet = ctx.internet
    loss = ctx.loss
    day = loss.day
    qname = ctx.qname

    is_blocked = ctx.is_blocked
    if is_blocked is not None:
        live = [target for target in targets if not is_blocked(target)]
    else:
        live = targets
    if sink.scannable is not None:
        sink.scannable.extend(live)
    sink.count += len(live)

    # correlated loss bursts kill every probe of a target at once and
    # are not retryable — drop those targets before any draw
    kept = loss.unburst(live)
    sink.burst_targets += len(live) - len(kept)
    live = kept
    if not live:
        return

    masks, asns, behaviors = internet.probe_batch_arrays(live, day, qname)

    # retries count for fast probes of targets with a live protocol, and
    # for every UDP/53 probe (the GFW can inject for a dead target too)
    lanes = Lanes(live)
    fast = loss.fast(lanes)
    udp = loss.draw(lanes, Protocol.UDP53)
    sink.retry_draws += fast.retries(masks) + udp.retries()

    inject_possible = ctx.inject_possible
    if inject_possible:
        inj_draws = unpack_lanes(lanes.mix(ctx.inject_day_hash), lanes.kit)
        crosses = internet.gfw._boundary.crosses
        crosses_cache = ctx.crosses_cache
        burst_cut = ctx.burst_cut
        inj_xor: List[int] = []

    # genuine-DNS variant codes that need no per-target work
    behavior_code = _BEHAVIOR_CODE
    open_code = GENUINE_NOERROR if ctx.resolved else GENUINE_NXDOMAIN
    logs_control = ctx.is_control and open_code == GENUINE_NOERROR
    log_append = sink.control_log.append
    mday = ctx.mday

    f0_add, f1_add, f2_add, f3_add = (found.add for found in sink.fast)
    udp_hits: List[int] = []
    udp_metas = bytearray()
    inj_counts: List[int] = []
    udp_hits_append = udp_hits.append
    udp_metas_append = udp_metas.append
    inj_counts_append = inj_counts.append

    for i, (target, mask, behavior, s, ok) in enumerate(
        zip(live, masks, behaviors, fast.merged(), udp.merged())
    ):
        # fast protocols: four probes drawn from disjoint 16-bit slices
        # of one 64-bit hash
        if mask:
            if s & 1 and mask & 1:  # ICMP
                f0_add(target)
            if s & 2 and mask & 2:  # TCP80
                f1_add(target)
            if s & 4 and mask & 4:  # TCP443
                f2_add(target)
            if s & 8 and mask & 16:  # UDP443
                f3_add(target)

        if not ok:  # the UDP/53 probe is lost
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


class _ApdWave:
    """One APD wave of one vantage on one day: what its probe groups
    read of the vantage, and its probe totals.

    The scanner builds it from its own configuration
    (:meth:`~repro.scan.zmap.ZMapScanner.apd_wave_bitmaps`) and records
    the totals once the wave is done.
    """

    def __init__(
        self,
        internet: SimInternet,
        blocklist: Blocklist,
        plan: Optional[FaultPlan],
        loss: LossDay,
    ) -> None:
        self.internet = internet
        self.blocklist = blocklist
        self.day = loss.day
        self.plan = plan
        self.loss = loss
        self.limits = tuple(
            plan is not None and plan.limits_protocol(protocol)
            for protocol in APD_PROTOCOLS
        )
        self.count = 0
        self.burst = 0
        self.retry_draws = 0
        self.hits = [0, 0]
        self.rate_limited = [0, 0]

    def bitmaps(self, probe_lists: Sequence[Sequence[int]]) -> List[int]:
        """Answer bitmaps of ``probe_lists``, probed in groups of whole
        lists of at most :data:`DEFAULT_CHUNK_SIZE` probes."""
        bitmaps: List[int] = []
        group: List[Sequence[int]] = []
        size = 0
        for probes in probe_lists:
            if size + len(probes) > DEFAULT_CHUNK_SIZE and group:
                bitmaps.extend(self.probe(group))
                group, size = [], 0
            group.append(probes)
            size += len(probes)
        bitmaps.extend(self.probe(group))
        return bitmaps

    def probe(self, group: List[Sequence[int]]) -> List[int]:
        """Bitmaps for one group of probe lists (one chunk of probes)."""
        internet = self.internet
        day = self.day
        flat: List[int] = []
        for probes in group:
            flat.extend(probes)
        n = len(flat)
        loss = self.loss
        # on-wire flags (1 per probe that is neither blocked nor
        # swallowed by a burst); None when every probe goes out
        wire_flags: Optional[bytearray] = None
        blocklist = self.blocklist
        lost = loss.burst_lost
        if len(blocklist) or lost is not None:
            scannable = range(n) if not len(blocklist) else [
                position for position, probe in enumerate(flat)
                if not blocklist.is_blocked(probe)
            ]
            positions = scannable if lost is None else [
                position for position in scannable if not lost(flat[position])
            ]
            self.count += len(scannable)
            self.burst += len(scannable) - len(positions)
            wire_flags = bytearray(n)
            masks = bytearray(n)
            on_wire = [flat[position] for position in positions]
            for position, mask in zip(
                positions, internet.probe_masks(on_wire, day)
            ):
                wire_flags[position] = 1
                masks[position] = mask
        else:
            self.count += n
            masks = internet.probe_masks(flat, day)
        answers = int.from_bytes(masks, "little")

        # per probe and protocol: 1 in the probe's byte when a probe of
        # that protocol survives loss (retries included); retries count
        # only for probes that went on the wire
        lanes = Lanes(flat)
        survived: List[int] = []
        for protocol in APD_PROTOCOLS:
            draw = loss.draw(lanes, protocol)
            self.retry_draws += draw.retries(wire_flags)
            survived.append(int.from_bytes(draw.merged(), "little"))
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

    def _rate_limit(
        self, group: List[Sequence[int]], n: int, icmp_hits: int, tcp_hits: int
    ) -> Tuple[int, int]:
        """Drop rate-limited responders, list by list (each list is one scan)."""
        internet = self.internet
        day = self.day
        blocklist = self.blocklist
        hit_bytes = [
            bytearray(icmp_hits.to_bytes(n, "little")),
            bytearray(tcp_hits.to_bytes(n, "little")),
        ]

        def origin(address: int) -> Optional[int]:
            return internet.origin_as(address, day)

        offset = 0
        for probes in group:
            scannable = [probe for probe in probes if not blocklist.is_blocked(probe)]
            for index, protocol in enumerate(APD_PROTOCOLS):
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
