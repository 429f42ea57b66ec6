"""Differential oracle: the APD wave pass against per-prefix scans.

``AliasedPrefixDetection._batch_bitmaps`` probes a whole wave of
candidate keys through ``ZMapScanner.apd_wave_bitmaps``, the chunked
columnar path; the frozen reference ``probe_bitmap``
(``tests/scan/_scanner_reference.py``) runs two plain single-protocol
scans per prefix.  Two fresh detectors on one
world must agree on every bitmap, on ``probes_sent`` and on the
deterministic metric state, whatever the loss, retry, blocklist and
fault setup.
"""

from typing import List, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._util import mix64
from repro.hitlist.apd import AliasedPrefixDetection, candidate_key
from repro.net.prefix import IPv6Prefix
from repro.obs.metrics import MetricsRegistry
from repro.protocols import Protocol
from repro.runtime.faults import (
    FaultPlan,
    LossBurst,
    RateLimit,
    RetryPolicy,
    VantageOutage,
)
from repro.scan.blocklist import Blocklist
from repro.scan.engine import DEFAULT_CHUNK_SIZE
from repro.scan.zmap import ZMapScanner
from tests.scan._scanner_reference import ReferenceScanner, probe_bitmap

DAY = 7


@pytest.fixture(scope="module")
def wave(small_world) -> List[IPv6Prefix]:
    """Candidates of every shape, more than one 4096-probe chunk's worth."""
    hosts = sorted(small_world.hosts)
    prefixes = [region.prefix for region in small_world.regions]
    # non-nibble BGP-style lengths covering aliased space
    prefixes += [
        IPv6Prefix(region.prefix.value, length)
        for region in small_world.regions[:4]
        for length in (29, 30)
    ]
    prefixes += [IPv6Prefix(host, 64) for host in hosts[:300]]
    for host in hosts[:40]:
        # /126: only four spots, padded as responsive
        prefixes += [IPv6Prefix(host, length) for length in (80, 124, 126)]
    unique = list(dict.fromkeys(prefixes))
    assert 16 * len(unique) > DEFAULT_CHUNK_SIZE
    return unique


class _Rib:
    """Announces the given prefixes, as ``RibSnapshot.prefixes`` does."""

    def __init__(self, prefixes: List[IPv6Prefix]) -> None:
        self._prefixes = prefixes

    def prefixes(self):
        return ((prefix, 0) for prefix in self._prefixes)


def _detector(world, blocklist=None, scanner_class=ZMapScanner, **scanner_args):
    metrics = MetricsRegistry()
    scanner = scanner_class(
        world, blocklist=blocklist, metrics=metrics, **scanner_args
    )
    return AliasedPrefixDetection(scanner, metrics=metrics), scanner, metrics


def _compare(world, prefixes, day=DAY, blocklist=None, **scanner_args):
    """Run both paths; return the wave detector's scanner and metrics."""
    batched, batched_scanner, batched_metrics = _detector(
        world, blocklist, **scanner_args
    )
    scalar, scalar_scanner, scalar_metrics = _detector(
        world, blocklist, ReferenceScanner, **scanner_args
    )
    got = batched._batch_bitmaps([candidate_key(p) for p in prefixes], day)
    want = [probe_bitmap(scalar, prefix, day, attempt=0) for prefix in prefixes]
    assert got == want
    assert batched_scanner.probes_sent == scalar_scanner.probes_sent
    assert batched_metrics.state_dict() == scalar_metrics.state_dict()
    return batched_scanner, batched_metrics, got


def _total(metrics, family: str) -> float:
    return metrics.counter_total(family)


def test_default_scanner(small_world, wave):
    _scanner, metrics, bitmaps = _compare(small_world, wave, loss_rate=0.03, seed=5)
    full = (1 << 16) - 1
    assert full in bitmaps  # aliased regions answer every spot
    assert 0 in bitmaps
    assert _total(metrics, "repro_probe_hits_total") > 0


def test_no_loss(small_world, wave):
    _compare(small_world, wave, loss_rate=0.0)


def test_retries(small_world, wave):
    _scanner, metrics, _bitmaps = _compare(
        small_world, wave, loss_rate=0.3, seed=11, retry=RetryPolicy(attempts=3)
    )
    assert _total(metrics, "repro_probe_retries_total") > 0


def test_blocklisted_probes(small_world, wave):
    blocklist = Blocklist()
    hosts = sorted(small_world.hosts)
    # a whole candidate, and a /68 slice of another /64 candidate
    blocklist.add(IPv6Prefix(hosts[3], 64))
    blocklist.add(IPv6Prefix(hosts[10], 68))
    blocklist.add(small_world.regions[0].prefix)
    scanner, _metrics, _bitmaps = _compare(
        small_world, wave, blocklist=blocklist, loss_rate=0.03
    )
    assert 0 < scanner.probes_sent < 2 * 16 * len(wave)


def test_loss_burst(small_world, wave):
    plan = FaultPlan(seed=3, bursts=(LossBurst(DAY - 1, DAY + 1, 0.2),))
    _scanner, metrics, _bitmaps = _compare(
        small_world, wave, loss_rate=0.03, fault_plan=plan,
        retry=RetryPolicy(attempts=2),
    )
    assert _total(metrics, "repro_burst_suppressed_total") > 0


@pytest.mark.parametrize(
    "protocols",
    [int(Protocol.ICMP), int(Protocol.TCP80), int(Protocol.ICMP | Protocol.TCP80)],
    ids=["icmp", "tcp80", "both"],
)
def test_rate_limits(small_world, wave, protocols):
    asns = {small_world.origin_as(host, DAY) for host in sorted(small_world.hosts)[:300]}
    asns |= {small_world.origin_as(r.prefix.value, DAY) for r in small_world.regions}
    asns.discard(None)
    plan = FaultPlan(
        seed=9,
        rate_limits=tuple(
            RateLimit(asn, budget=5, protocols=protocols) for asn in sorted(asns)
        ),
    )
    _scanner, metrics, _bitmaps = _compare(
        small_world, wave, loss_rate=0.03, fault_plan=plan
    )
    assert _total(metrics, "repro_rate_limited_total") > 0


def test_vantage_outage_costs_nothing(small_world, wave):
    plan = FaultPlan(outages=(VantageOutage(DAY, DAY),))
    scanner, metrics, bitmaps = _compare(
        small_world, wave, loss_rate=0.03, fault_plan=plan
    )
    assert scanner.probes_sent == 0
    assert _total(metrics, "repro_probes_sent_total") == 0
    # nothing answers; only the short /126 lists keep their padding
    assert set(bitmaps) == {0, 0xFFF0}


@given(
    day=st.integers(min_value=0, max_value=1400),
    loss_rate=st.sampled_from([0.0, 0.03, 0.25]),
    attempts=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=1 << 20),
    burst=st.one_of(st.none(), st.floats(min_value=0.05, max_value=0.5)),
    budget=st.one_of(st.none(), st.integers(min_value=1, max_value=16)),
    blocked=st.integers(min_value=0, max_value=8),
)
@settings(
    max_examples=max(20, settings.default.max_examples), deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_generated_scenarios(
    small_world, wave, day, loss_rate, attempts, seed,
    burst: Optional[float], budget: Optional[int], blocked: int,
):
    hosts = sorted(small_world.hosts)
    blocklist = Blocklist()
    for host in hosts[:blocked]:
        blocklist.add(IPv6Prefix(host, 66))
    plan = FaultPlan(
        seed=seed,
        bursts=() if burst is None else (LossBurst(day, day, burst),),
        rate_limits=() if budget is None else tuple(
            RateLimit(asn, budget=budget, protocols=int(Protocol.ICMP | Protocol.TCP80))
            for asn in sorted(
                {small_world.origin_as(host, day) for host in hosts[:50]} - {None}
            )
        ),
    )
    _compare(
        small_world, wave[::3], day=day, blocklist=blocklist,
        loss_rate=loss_rate, seed=seed, fault_plan=plan,
        retry=RetryPolicy(attempts=attempts),
    )


def test_wave_metrics_match_per_prefix_rounds(small_world, wave):
    """``_test_wave`` records APD metrics once per wave, per level; its
    verdicts, state and ``metrics.state_dict()`` must equal one
    ``test_prefix`` call per prefix, over rounds that alias, near-miss
    and de-list prefixes at every candidate level."""
    full = (1 << 16) - 1
    batched, _scanner, batched_metrics = _detector(small_world)
    single, _scanner, single_metrics = _detector(small_world)
    # every third prefix is announced, a dense /64 adds "longer"
    # candidates, and the rest keep the "slash64" level
    base = 0x20010DB8 << 96
    members = [base | index for index in range(120)]
    extra: set = set()
    for detector in (batched, single):
        detector.bgp_candidates(_Rib(wave[::3]))
        extra = detector.candidates_for_new_input(members, {base >> 64: members})
    wave = wave + sorted(extra)
    assert {"bgp", "slash64", "longer"} <= {
        single.candidate(prefix).level for prefix in wave}
    keys = [candidate_key(prefix) for prefix in wave]

    def bitmap(index: int, day: int) -> int:
        draw = mix64(index * 1009 + day)
        choices = (full, full, full ^ (1 << day % 16), 0, draw & full)
        return choices[draw % len(choices)]

    for day in range(8):
        bitmaps = [bitmap(index, day) for index in range(len(wave))]
        batched._batch_bitmaps = lambda prefixes, _day, bitmaps=bitmaps: list(bitmaps)
        changed: set = set()
        batched._test_wave([], day, changed)
        assert batched_metrics.state_dict() == single_metrics.state_dict()
        batched._test_wave(keys, day, changed)
        expected = set()
        for prefix, value in zip(wave, bitmaps):
            was = single.is_aliased(prefix)
            if single.test_prefix(prefix, day, bitmap=value) != was:
                expected.add(prefix)
        assert changed == expected
        assert batched.aliased_prefixes == single.aliased_prefixes
        assert list(map(batched.candidate, wave)) == list(map(single.candidate, wave))
        assert batched_metrics.state_dict() == single_metrics.state_dict()
    verdicts = single_metrics.get("repro_apd_alias_verdicts_total")
    assert {labels[0] for labels, _ in verdicts.series_items()} == {"aliased", "delisted"}


def test_standalone_test_prefix(small_world, wave):
    """``test_prefix`` without a bitmap probes a wave of one: verdicts,
    ``probes_sent`` and metric state match the reference round, over
    repeated rounds (same-day repeats included, as in bootstrap)."""
    prefixes = wave[::7]
    batched, batched_scanner, batched_metrics = _detector(
        small_world, loss_rate=0.03, seed=5
    )
    scalar, scalar_scanner, scalar_metrics = _detector(
        small_world, scanner_class=ReferenceScanner, loss_rate=0.03, seed=5
    )
    for day in (DAY, DAY, DAY + 30, DAY + 31):
        for prefix in prefixes:
            attempt = len(scalar.candidate(prefix).history)
            want = scalar.test_prefix(
                prefix, day, bitmap=probe_bitmap(scalar, prefix, day, attempt)
            )
            assert batched.test_prefix(prefix, day) == want
        assert list(map(batched.candidate, prefixes)) == list(
            map(scalar.candidate, prefixes))
        assert batched_scanner.probes_sent == scalar_scanner.probes_sent
        assert batched_metrics.state_dict() == scalar_metrics.state_dict()
    assert batched.aliased_count > 0
