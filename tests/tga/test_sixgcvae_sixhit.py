"""Tests for the extension generators: 6GCVAE and 6Hit."""

import pytest

from repro.net.address import parse_ipv6
from repro.protocols import Protocol
from repro.scan.zmap import ZMapScanner
from repro.tga import SixGcVae, SixHit

BASE = parse_ipv6("2001:db8:300::")


def structured_seeds():
    return [
        BASE | (subnet << 64) | iid
        for subnet in range(8)
        for iid in range(1 + subnet, 13 + subnet)
    ]


class TestSixGcVae:
    def test_generates_near_seed_manifold(self):
        result = SixGcVae(budget=400).generate(structured_seeds())
        assert result.candidates
        # the constant /48 prefix dimension has zero variance: preserved
        in_prefix = sum(1 for c in result.candidates if c >> 80 == BASE >> 80)
        assert in_prefix / len(result.candidates) > 0.9

    def test_budget_and_dedup(self):
        seeds = structured_seeds()
        result = SixGcVae(budget=64).generate(seeds)
        assert len(result.candidates) <= 64
        assert not result.candidates & set(seeds)

    def test_deterministic(self):
        seeds = structured_seeds()
        assert (
            SixGcVae(budget=64).generate(seeds).candidates
            == SixGcVae(budget=64).generate(seeds).candidates
        )

    def test_needs_enough_seeds(self):
        assert SixGcVae().generate([BASE, BASE | 1]).candidates == set()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SixGcVae(latent_dimensions=0)
        with pytest.raises(ValueError):
            SixGcVae(temperature=0.0)


class TestSixHitFlat:
    def test_generate_without_feedback(self):
        result = SixHit(budget=200).generate(structured_seeds())
        assert result.candidates
        seed_regions = {seed >> 64 for seed in structured_seeds()}
        assert {c >> 64 for c in result.candidates} <= seed_regions

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SixHit(rounds=0)
        with pytest.raises(ValueError):
            SixHit(exploration=1.5)


class TestSixHitFeedback:
    def test_budget_shifts_to_rewarding_regions(self):
        # ground truth: region 0 is densely assigned, region 7 is empty
        dense_region = BASE >> 64
        responsive = {
            (dense_region << 64) | iid for iid in range(1, 2000)
        }

        def probe(candidates):
            return candidates & responsive

        seeds = structured_seeds()
        hit = SixHit(budget=2000, rounds=3, seed=1)
        found = hit.iterate(seeds, probe)
        assert found <= responsive
        assert found, "the dense region rewards probing"
        assert len(hit.history) == 3
        final_weights = hit.history[-1].region_weights
        dense_weight = final_weights[dense_region]
        empty_regions = [r for r in final_weights if r != dense_region]
        assert all(dense_weight > final_weights[r] for r in empty_regions)

    def test_iterate_against_simulated_internet(self, small_world):
        # seeds: discovered members of a structured farm
        truth = small_world.ground_truth
        seeds = sorted(truth.get("farm_discovered"))[:200]
        hidden = truth.get("farm_hidden")
        scanner = ZMapScanner(small_world, loss_rate=0.0)

        def probe(candidates):
            results, _udp53 = scanner.scan_all_protocols(
                sorted(candidates), 60, "www.google.com"
            )
            return set(results[Protocol.ICMP].responders)

        hit = SixHit(budget=4000, rounds=3, seed=2)
        found = hit.iterate(seeds, probe)
        assert found & hidden, "feedback loop discovers hidden farm hosts"

    def test_empty_seeds(self):
        assert SixHit().iterate([], lambda c: set()) == set()
