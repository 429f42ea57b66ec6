"""Packed vs plain GFW cleaning: the response table is an exact stand-in.

The scan engine hands the GFW filter a packed ``ResponseTable``.  Every
test cleans one scan both ways, with two fresh filters: the table
through ``GfwFilter.clean_scan``, and its plain-dict copy through the
frozen per-response reference (``tests/gfw/_cleaning_reference.py``).
Both must give identical verdicts, evidence, owner attribution and
deterministic metrics.  Where the scalar reference prober
(``tests/scan/_scanner_reference.py``) scans the same targets, its
responses must equal the table's.  The contract test at the end pins
the point of the table: a forged-answer scan plus its cleaning builds
no response object at all, and tests evidence once per distinct high
word, not once per forged answer.
"""

import dataclasses

import pytest

from repro.gfw import detector
from repro.gfw import filter as filter_module
from repro.gfw.detector import InjectionEvidence
from repro.gfw.filter import GfwFilter
from repro.obs import deterministic_metrics, registry_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.protocols import DnsAnswer, DnsResponse, Protocol
from repro.runtime.faults import FaultPlan, RateLimit
from repro.scan import engine as engine_module
from repro.scan.responses import GENUINE_NONE, ResponseTable
from repro.scan.zmap import Udp53Result, ZMapScanner
from repro.simnet import build_internet, small_config
from repro.simnet.gfwsim import InjectionMode
from repro.simnet.hosts import DnsBehavior
from repro.vantage import VantageFleet, default_vantage_specs
from tests.gfw._cleaning_reference import clean_mapping
from tests.scan._scanner_reference import ReferenceScanner

QNAME = "www.google.com"
#: below the engine's 4096, so every scan here builds its response table
#: from several chunks
CHUNK_SIZE = 512


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    monkeypatch.setattr(engine_module, "DEFAULT_CHUNK_SIZE", CHUNK_SIZE)


@pytest.fixture(scope="module")
def config():
    return small_config()


@pytest.fixture(scope="module")
def world(config):
    return build_internet(config)


@pytest.fixture(scope="module")
def targets(world):
    return sorted(world.ground_truth.get("initial_input"))


def _era_day(world, mode):
    """A scan day inside the small preset's first era of ``mode``."""
    era = next(era for era in world.gfw.eras if era.mode is mode)
    return era.start_day + 10


def _scan(world, targets, day, qname=QNAME):
    return ZMapScanner(world, seed=1).scan_all_protocols(targets, day, qname)[1]


def _clean(udp53, responses_of=None):
    """Clean ``udp53``'s table, or the plain dict ``responses_of`` through
    the reference, with a fresh filter."""
    registry = MetricsRegistry()
    gfw = GfwFilter(metrics=registry)
    if responses_of is None:
        cleaning = gfw.clean_scan(udp53)
    else:
        cleaning = clean_mapping(gfw, udp53, responses_of)
    return {
        "clean_responders": cleaning.clean_responders,
        "injected_responders": cleaning.injected_responders,
        "evidence_counts": cleaning.evidence_counts,
        # insertion order reaches checkpoint bytes
        "forged_answer_owners": list(gfw.forged_answer_owners.items()),
        "ever_injected": gfw.ever_injected,
        "metrics": deterministic_metrics(registry_to_dict(registry)),
    }


def assert_same_cleaning(udp53):
    """Clean the packed table and its plain-dict copy; return the view."""
    assert isinstance(udp53.responses, ResponseTable)
    packed = _clean(udp53)
    plain = _clean(udp53, dict(udp53.responses.items()))
    assert packed == plain
    return packed


def _forged_counts(table):
    rows = table.columns()
    return dict(zip(rows.responders, rows.counts))


@pytest.mark.parametrize("mode", [InjectionMode.A_RECORD, InjectionMode.TEREDO])
def test_era_cleans_identically(world, targets, mode):
    udp53 = _scan(world, targets, _era_day(world, mode))
    assert udp53.responses.wide is (mode is InjectionMode.TEREDO)
    view = assert_same_cleaning(udp53)
    assert view["injected_responders"] and view["clean_responders"]
    assert view["forged_answer_owners"]
    kind = (
        InjectionEvidence.TEREDO_ANSWER if mode is InjectionMode.TEREDO
        else InjectionEvidence.A_FOR_AAAA
    )
    assert view["evidence_counts"][kind] == sum(
        _forged_counts(udp53.responses).values()
    )


def test_burst_row(world, targets):
    day = _era_day(world, InjectionMode.A_RECORD)
    udp53 = _scan(world, targets, day)
    counts = _forged_counts(udp53.responses)
    burst = max(counts, key=counts.get)
    assert counts[burst] >= 64
    # the burst row lands behind another table's payloads in a merge
    # target, so its offset must be rebased to decode the same answers
    other = _scan(world, targets, day + 1).responses
    first = [responder for responder, count in _forged_counts(other).items()
             if count and responder != burst][:5]
    merged = udp53.responses.empty_copy()
    merged.take(other, first)
    merged.take(udp53.responses, [burst])
    assert merged[burst] == udp53.responses[burst]
    assert all(merged[responder] == other[responder] for responder in first)

    table = udp53.responses.empty_copy()
    table.take(udp53.responses, [burst])
    single = Udp53Result(day=udp53.day, qname=QNAME, targets=1,
                         responders={burst}, responses=table)
    view = assert_same_cleaning(single)
    assert view["injected_responders"] == {burst}
    multiple = view["evidence_counts"][InjectionEvidence.MULTIPLE_RESPONSES]
    assert multiple == len(udp53.responses[burst]) >= 64


def test_control_qname_with_proxy_resolvers(config, targets):
    """Control-NS log order and responses match the scalar scanner."""
    world = build_internet(config)
    resolvers = sorted(
        address for address, host in world.hosts.items()
        if host.protocols & Protocol.UDP53
    )[:12]
    for index, address in enumerate(resolvers):
        behavior = (
            DnsBehavior.PROXY_RESOLVER if index % 2 else DnsBehavior.OPEN_RESOLVER
        )
        world.hosts[address] = dataclasses.replace(
            world.hosts[address], dns_behavior=behavior
        )
    qname = f"h3f1.{world.control_domain}"
    scan_targets = sorted(set(targets) | set(world.hosts))
    day = 8
    del world.control_ns_log[:]
    udp53 = _scan(world, scan_targets, day, qname)
    engine_log = list(world.control_ns_log)
    del world.control_ns_log[:]
    scalar = ReferenceScanner(world, seed=1).scan_udp53(scan_targets, day, qname)
    assert engine_log == world.control_ns_log
    assert any(entry.source not in udp53.responders for entry in engine_log)
    assert udp53.responses == scalar.responses
    assert_same_cleaning(udp53)


def test_rate_limited_rows_dropped(world, targets):
    day = _era_day(world, InjectionMode.A_RECORD)
    unlimited = _scan(world, targets, day)
    cn_asn = max(
        world.gfw.boundary.inside_asns,
        key=lambda asn: sum(
            1 for target in unlimited.responders
            if world.origin_as(target, day) == asn
        ),
    )
    plan = FaultPlan(seed=3, rate_limits=(
        RateLimit(asn=cn_asn, budget=50, protocols=int(Protocol.UDP53)),
    ))
    scanner = ZMapScanner(world, seed=1, fault_plan=plan)
    udp53 = scanner.scan_all_protocols(targets, day, QNAME)[1]
    assert len(udp53.responders) < len(unlimited.responders)
    assert set(udp53.responses) == udp53.responders
    scalar = ReferenceScanner(world, seed=1, fault_plan=plan).scan_udp53(
        targets, day, QNAME
    )
    assert udp53.responses == scalar.responses
    assert_same_cleaning(udp53)


def test_three_vantage_fleet(config, targets):
    world = build_internet(config)
    fleet = VantageFleet(
        world, default_vantage_specs(world, config.seed, 3),
        seed=config.seed,
    )
    day = _era_day(world, InjectionMode.A_RECORD)
    _results, udp53, report = fleet.scan(targets, day, QNAME)
    # every merged row decodes to what some member heard for it
    heard = [
        scanner.scan_all_protocols(targets, day, QNAME)[1].responses
        for scanner in fleet.scanners
    ]
    assert report.witness_targets
    assert set(udp53.responses) <= udp53.responders
    for responder, responses in udp53.responses.items():
        assert any(member.get(responder) == responses for member in heard)
    view = assert_same_cleaning(udp53)
    assert view["injected_responders"]


def test_chunk_partition_invisible(world, targets, monkeypatch):
    """A table merged from many chunks equals the one-chunk table and
    cleans identically."""
    day = _era_day(world, InjectionMode.TEREDO)
    chunked = _scan(world, targets, day)
    monkeypatch.setattr(engine_module, "DEFAULT_CHUNK_SIZE", len(targets))
    whole = _scan(world, targets, day)
    assert chunked.responders == whole.responders
    assert chunked.responses == whole.responses
    assert assert_same_cleaning(chunked) == assert_same_cleaning(whole)


def test_plain_mapping_rejected():
    """Only a scan's response table cleans; a default result is one."""
    gfw = GfwFilter()
    with pytest.raises(TypeError, match="ResponseTable"):
        gfw.clean_scan(Udp53Result(day=1, qname=QNAME, responses={}))
    carried = gfw.clean_scan(Udp53Result(day=1, qname=QNAME, responders={1, 2}))
    assert carried.clean_responders == {1, 2}
    assert not carried.injected_responders and not gfw.ever_injected


def _clean_forged_day(world, targets, monkeypatch, mode):
    """Scan and clean a forged-answer day of ``mode``, counting the
    responses built and the ``answer_evidence`` calls made."""
    built = []
    original = DnsResponse.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(DnsResponse, "__init__", counting_init)
    tested = []
    evidence = detector.answer_evidence

    def counting_evidence(*args, **kwargs):
        tested.append(args)
        return evidence(*args, **kwargs)

    monkeypatch.setattr(filter_module, "answer_evidence", counting_evidence)
    monkeypatch.setattr(detector, "answer_evidence", counting_evidence)
    scanner = ZMapScanner(world, seed=1)
    udp53 = scanner.scan_all_protocols(targets, _era_day(world, mode), QNAME)[1]
    cleaning = GfwFilter(metrics=MetricsRegistry()).clean_scan(udp53)
    forged = sum(_forged_counts(udp53.responses).values())
    assert forged > 1000 and cleaning.injected_responders
    assert built == []
    # one evidence test per A-record table or distinct Teredo high word,
    # plus one per genuine variant: never one per forged answer
    rows = udp53.responses.columns(udp53.responders)
    variants = len(set(rows.variants) - {GENUINE_NONE})
    if mode is InjectionMode.TEREDO:
        assert len(tested) <= len(set(rows.answers[1])) + variants
    else:
        assert len(tested) <= 1 + variants
    assert len(tested) < forged // 100
    return scanner, udp53, forged, built


def test_forged_day_builds_no_response_objects(world, targets, monkeypatch):
    """Fused scan plus cleaning of a forged-answer day: zero responses
    built, few evidence tests, and no per-answer state left behind in
    the scanner."""
    scanner, udp53, forged, built = _clean_forged_day(
        world, targets, monkeypatch, InjectionMode.A_RECORD
    )
    assert not hasattr(scanner, "_answer_cache")
    containers = [
        value for value in vars(scanner).values()
        if isinstance(value, (dict, list, set, tuple))
    ]
    assert sum(len(value) for value in containers) < forged
    for value in containers:
        items = value.items() if isinstance(value, dict) else value
        flat = [part for item in items
                for part in (item if isinstance(item, tuple) else (item,))]
        assert not any(isinstance(part, (DnsAnswer, DnsResponse)) for part in flat)

    # reading a row is what builds its responses
    responder = next(iter(udp53.responses))
    assert len(udp53.responses[responder]) == len(built)


def test_teredo_day_tests_evidence_per_high_word(world, targets, monkeypatch):
    """A Teredo-era day: zero responses built, and one evidence test per
    distinct high word of its forged answers."""
    _clean_forged_day(world, targets, monkeypatch, InjectionMode.TEREDO)
