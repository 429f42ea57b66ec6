"""Differential test: the batch tracer against the frozen per-target loop.

``YarrpTracer.trace_targets`` traces each distinct (/48, origin AS) route
once per scan through ``SimInternet.trace_hops``.  The frozen reference
(``tests/scan/_yarrp_reference.py``) traces every target on its own.
Over generated scan sequences (blocklists, sample rates, outages,
rotation days, repeated /48s and repeated targets) both must return the
same hop set in the same iteration order, the same ``targets_traced``
and the same metric state: the service persists hops in iteration order.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.prefix import IPv6Prefix
from repro.obs.metrics import MetricsRegistry
from repro.runtime.faults import FaultPlan, VantageOutage
from repro.scan.blocklist import Blocklist
from repro.scan.yarrp import YarrpTracer
from tests.scan._yarrp_reference import ReferenceYarrpTracer, topology_trace

_LOW80 = (1 << 80) - 1


@st.composite
def scans(draw, world):
    hosts = sorted(world.hosts)
    picked = draw(st.lists(st.sampled_from(hosts), max_size=80))
    # addresses in the CPE fleets' pools reach the rotating last hops
    pools = [fleet.pool for fleet in world.topology.fleets]
    in_pools = draw(st.lists(
        st.tuples(st.sampled_from(pools), st.integers(0, 2**128 - 1)), max_size=30))
    picked += [pool.value | (bits >> pool.length) for pool, bits in in_pools]
    # anywhere at all, mostly unrouted (no origin AS)
    picked += draw(st.lists(st.integers(0, 2**128 - 1), max_size=5))
    # repeated /48s: siblings of drawn targets in the same /48, often in
    # another /64 and so possibly under another origin
    siblings = draw(st.lists(
        st.tuples(st.sampled_from(picked or hosts), st.integers(0, _LOW80)), max_size=30))
    targets = picked + [(base >> 80 << 80) | low for base, low in siblings]
    targets = draw(st.permutations(targets))
    days = draw(st.lists(
        st.integers(0, 420) | st.sampled_from([6, 7, 13, 14, 20, 21, 27, 28, 56]),
        min_size=1, max_size=4))
    return targets, days


@st.composite
def blocklists(draw, world, targets, day):
    """Prefixes over today's hops and targets, at lengths that matter."""
    hops = set()
    for target in targets:
        asn = world.origin_as(target, day)
        hops.update(topology_trace(world.topology, target, asn, day))
    pool = sorted(hops) + sorted(set(targets))
    if not pool:
        return Blocklist()
    blocklist = Blocklist()
    for address, length in draw(st.lists(
            st.tuples(st.sampled_from(pool), st.sampled_from([128, 64, 48, 40, 32])),
            max_size=6)):
        blocklist.add(IPv6Prefix(address, length))
    return blocklist


@settings(deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_tracer_matches_reference(small_world, data):
    targets, days = data.draw(scans(small_world))
    blocklist = data.draw(blocklists(small_world, targets, days[0]))
    sample_rate = data.draw(st.sampled_from([1.0, 0.5, 0.125]) | st.floats(0.01, 1.0))
    seed = data.draw(st.integers(0, 2**32))
    outage = data.draw(st.none() | st.tuples(st.integers(0, 420), st.integers(0, 60)))
    plan = None if outage is None else FaultPlan(
        outages=(VantageOutage(outage[0], outage[0] + outage[1]),))
    kwargs = dict(blocklist=blocklist, sample_rate=sample_rate, seed=seed,
                  fault_plan=plan)
    new_metrics, ref_metrics = MetricsRegistry(), MetricsRegistry()
    new = YarrpTracer(small_world, metrics=new_metrics, **kwargs)
    ref = ReferenceYarrpTracer(small_world, metrics=ref_metrics, **kwargs)
    for day in days:
        got = new.trace_targets(iter(targets), day)
        want = ref.trace_targets(targets, day)
        assert got.targets_traced == want.targets_traced
        assert list(got.hops) == list(want.hops)
    assert new_metrics.state_dict() == ref_metrics.state_dict()


def test_hop_order_is_first_occurrence_order(small_world):
    """A whole campaign's pool over rotating days, hop list for hop list."""
    targets = sorted(small_world.hosts)
    new, ref = YarrpTracer(small_world), ReferenceYarrpTracer(small_world)
    for day in range(0, 120, 7):
        got = new.trace_targets(targets, day)
        want = ref.trace_targets(targets, day)
        assert got.targets_traced == want.targets_traced == len(targets)
        assert list(got.hops) == list(want.hops)
