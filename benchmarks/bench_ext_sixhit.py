"""Extension bench: 6Hit's feedback loop vs. its own uniform baseline.

Not a paper table — 6Hit is related work the paper cites (Hou et al.,
INFOCOM 2021).  The claim worth checking: reward-driven budget
reallocation discovers more hidden hosts per probe than a uniform
allocation of the same budget.
"""

import pytest
from conftest import once

from repro.analysis.formatting import ascii_table
from repro.protocols import Protocol
from repro.scan.zmap import ZMapScanner
from repro.simnet import build_internet, default_config
from repro.tga import SixHit


@pytest.fixture(scope="module")
def truth_world():
    return build_internet(default_config())


def test_ext_sixhit_feedback(benchmark, truth_world, emit):
    truth = truth_world.ground_truth
    seeds = sorted(truth.get("farm_discovered"))
    hidden = truth.get("farm_hidden")
    scanner = ZMapScanner(truth_world, loss_rate=0.0)
    day = 60

    def probe(candidates):
        results, _udp53 = scanner.scan_all_protocols(
            sorted(candidates), day, "www.google.com"
        )
        return set(results[Protocol.ICMP].responders)

    def run_both():
        feedback = SixHit(budget=40_000, rounds=4, seed=3)
        found_feedback = feedback.iterate(seeds, probe)
        flat = SixHit(budget=40_000, rounds=1, seed=3)
        found_flat = flat.iterate(seeds, probe)
        return feedback, found_feedback, found_flat

    feedback, found_feedback, found_flat = once(benchmark, run_both)

    rows = [
        ["uniform (1 round)", 40_000, len(found_flat),
         len(found_flat & hidden)],
        ["feedback (4 rounds)", 40_000, len(found_feedback),
         len(found_feedback & hidden)],
    ]
    per_round = [
        [f"round {entry.round_index}", entry.probed, entry.hits,
         f"{entry.hit_rate:.1%}"]
        for entry in feedback.history
    ]
    rendered = (
        ascii_table(["allocation", "budget", "responsive", "hidden hits"], rows,
                    title="6Hit: reward-driven vs. uniform budget (same probe budget)")
        + "\n\n"
        + ascii_table(["", "probed", "hits", "hit rate"], per_round,
                      title="feedback rounds (budget drifts to rewarding regions)")
    )
    emit("ext_sixhit", rendered)

    assert found_feedback, "the loop discovers responsive addresses"
    assert len(found_feedback) >= len(found_flat), (
        "feedback must not be worse than uniform at equal budget"
    )
    # hit rate improves across rounds once rewards accumulate
    if len(feedback.history) >= 2:
        first, last = feedback.history[0], feedback.history[-1]
        assert last.hit_rate >= first.hit_rate * 0.5
