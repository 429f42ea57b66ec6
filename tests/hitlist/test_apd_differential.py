"""Differential oracle: the int-keyed APD table against the frozen
``IPv6Prefix``-keyed detector (``tests/hitlist/_apd_reference.py``).

Both detectors run side by side over generated multi-round inputs: new
input addresses (hosts, members of dense and aliased regions, addresses
inside announced space), an optional RIB per round, same-day repeats,
bootstrap follow-up re-tests, loss with retries, and a checkpoint
round trip part way.  After every round they must agree on the
``changed`` set, the detected aliases, ``probes_sent``, the metric
state and the checkpoint's encoded ``apd`` block, byte for byte.
"""

import json
from typing import Dict, List

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hitlist.apd import AliasedPrefixDetection
from repro.obs.metrics import MetricsRegistry
from repro.runtime.faults import RetryPolicy
from repro.scan.zmap import ZMapScanner
from tests.hitlist._apd_reference import (
    ReferenceApd,
    reference_state,
    restore_reference,
)


def _address_pool(world) -> List[int]:
    """Input addresses of every shape the service feeds APD."""
    hosts = sorted(world.hosts)
    dense = sorted(world.ground_truth.get("dense_region_members"))
    pool = hosts[::9] + dense[::2]
    for region in world.regions[::3]:
        # a few addresses per aliased region, in one and in several /64s
        base = region.prefix.value
        pool += [base | 1, base | 2, base | (3 << 64) | 7]
    for host in hosts[:6]:
        # dense /64s of synthetic input: longer candidates at a low threshold
        pool += [(host >> 64 << 64) | index << 56 | index for index in range(24)]
    return sorted(set(pool))


def _pair(world, loss_rate, seed, attempts, **apd_args):
    """A production and a reference detector, each with its own scanner."""
    pair = []
    for detector in (AliasedPrefixDetection, ReferenceApd):
        metrics = MetricsRegistry()
        scanner = ZMapScanner(
            world, loss_rate=loss_rate, seed=seed, metrics=metrics,
            retry=RetryPolicy(attempts=attempts),
        )
        pair.append((detector(scanner, metrics=metrics, **apd_args), scanner, metrics))
    return pair


def _assert_same(pair) -> None:
    (new, new_scanner, new_metrics), (ref, ref_scanner, ref_metrics) = pair
    assert new.aliased_prefixes == ref.aliased_prefixes
    assert json.dumps(new.state_dict()) == json.dumps(reference_state(ref))
    assert new_scanner.probes_sent == ref_scanner.probes_sent
    assert new_metrics.state_dict() == ref_metrics.state_dict()


_round = st.tuples(
    st.sampled_from([0, 0, 1, 7, 30, 45]),  # days since the previous round
    st.lists(st.integers(min_value=0, max_value=10**6), max_size=40),
    st.booleans(),  # with the day's RIB
    st.booleans(),  # bootstrap follow-up re-test after the round
)


@given(
    loss_rate=st.sampled_from([0.0, 0.03, 0.3]),
    attempts=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=1 << 20),
    min_longer=st.sampled_from([4, 12, 100]),
    window=st.sampled_from([1, 3]),
    reconfirm=st.sampled_from([1, 7, 30]),
    start_day=st.sampled_from([0, 200, 1279]),
    rounds=st.lists(_round, min_size=1, max_size=6),
    restore_after=st.integers(min_value=0, max_value=6),
)
@settings(
    max_examples=max(10, settings.default.max_examples // 2), deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_table_matches_reference(
    small_world, loss_rate, attempts, seed, min_longer, window, reconfirm,
    start_day, rounds, restore_after,
):
    pool = _address_pool(small_world)
    apd_args = dict(
        min_longer_addresses=min_longer, history_window=window,
        reconfirm_interval=reconfirm,
    )
    pair = _pair(small_world, loss_rate, seed, attempts, **apd_args)
    members: Dict[int, List[int]] = {}
    seen = set()
    day = start_day
    for index, (step, picks, with_rib, retest) in enumerate(rounds):
        day += step
        new_input = []
        for pick in picks:
            address = pool[pick % len(pool)]
            if address not in seen:
                seen.add(address)
                new_input.append(address)
                members.setdefault(address >> 64, []).append(address)
        rib = small_world.routing.snapshot_at(day) if with_rib else None
        (new, _, _), (ref, _, _) = pair
        changed = new.run(day, new_input, members, rib)
        assert changed == ref.run(day, new_input, members, rib)
        if retest:
            assert new.retest_followups(day) == ref.retest_followups(day)
        _assert_same(pair)
        if index + 1 == restore_after:
            # both resume from the checkpoint's lists and carry on
            state = json.loads(json.dumps(new.state_dict()))
            (_, new_scanner, new_metrics), (_, ref_scanner, ref_metrics) = pair
            restored = AliasedPrefixDetection(new_scanner, metrics=new_metrics, **apd_args)
            restored.restore_state(state)
            restored_ref = ReferenceApd(ref_scanner, metrics=ref_metrics, **apd_args)
            restore_reference(restored_ref, state)
            pair = [
                (restored, new_scanner, new_metrics),
                (restored_ref, ref_scanner, ref_metrics),
            ]
            _assert_same(pair)
