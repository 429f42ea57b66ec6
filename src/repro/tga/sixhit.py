"""6Hit (Hou et al., INFOCOM 2021) — reward-driven iterative generation.

6Hit treats target generation as reinforcement learning: the address
space is partitioned into regions, a probing budget is allocated across
regions, and each round's scan feedback (hits per region) re-weights the
next round's allocation.  That loop is reproduced here directly:
:meth:`iterate` takes a ``probe_fn`` (e.g. a closure over
:meth:`~repro.scan.zmap.ZMapScanner.scan_all_protocols` that keeps the
ICMP responders) and reallocates budget towards rewarding regions.

Without feedback (the plain :meth:`generate` contract) the allocator
degenerates to a single uniform round — useful as a baseline, but the
method's value is the loop, which the dedicated example/bench exercises.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Set

from repro._util import stable_hash
from repro.tga.base import TargetGenerator

_LOW64 = (1 << 64) - 1


@dataclass
class SixHitRound:
    """Bookkeeping of one feedback round."""

    round_index: int
    probed: int
    hits: int
    region_weights: Dict[int, float] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.probed if self.probed else 0.0


class SixHit(TargetGenerator):
    """Budget-reallocating generator with scan feedback."""

    name = "6hit"

    def __init__(
        self,
        budget: int = 20_000,
        rounds: int = 4,
        exploration: float = 0.15,
        seed: int = 0,
    ) -> None:
        super().__init__(budget)
        if rounds < 1:
            raise ValueError("rounds must be positive")
        if not 0.0 <= exploration <= 1.0:
            raise ValueError("exploration must be within [0, 1]")
        self.rounds = rounds
        self.exploration = exploration
        self._seed = seed
        self.history: List[SixHitRound] = []

    # ------------------------------------------------------------------

    @staticmethod
    def _region_of(address: int) -> int:
        """Regions are /64 networks — the natural allocation unit."""
        return address >> 64

    def _region_candidates(
        self, region: int, members: Sequence[int], count: int, rng: random.Random
    ) -> Set[int]:
        """Candidates inside one region, near the observed IID span."""
        iids = sorted(address & _LOW64 for address in members)
        low, high = iids[0], iids[-1]
        span = max(high - low, 1)
        base = region << 64
        picks: Set[int] = set()
        attempts = count * 4
        for _ in range(attempts):
            if len(picks) >= count:
                break
            # mostly interpolate the observed span, sometimes extend it
            if rng.random() < 0.8:
                iid = low + rng.randint(0, span)
            else:
                iid = max(high + rng.randint(1, span + 16), 1)
            picks.add(base | (iid & _LOW64))
        return picks

    def _allocate(
        self, weights: Dict[int, float], budget: int
    ) -> Dict[int, int]:
        total = sum(weights.values())
        if total <= 0:
            equal = max(budget // max(len(weights), 1), 1)
            return {region: equal for region in weights}
        return {
            region: max(int(budget * weight / total), 1)
            for region, weight in weights.items()
        }

    # ------------------------------------------------------------------

    def iterate(
        self,
        seeds: Sequence[int],
        probe_fn: Callable[[Set[int]], Set[int]],
        rounds: int = 0,
    ) -> Set[int]:
        """Run the full RL loop; returns all *responsive* discoveries.

        ``probe_fn`` receives a candidate set and returns the responsive
        subset (typically a ZMapScanner closure).  Budget shifts towards
        regions that rewarded probes in earlier rounds, with an
        exploration floor so cold regions are never starved completely.
        """
        rounds = rounds or self.rounds
        rng = random.Random(stable_hash(self._seed, "6hit", len(seeds)))
        regions: Dict[int, List[int]] = {}
        for seed in set(seeds):
            regions.setdefault(self._region_of(seed), []).append(seed)
        if not regions:
            return set()
        weights: Dict[int, float] = {region: 1.0 for region in regions}
        per_round = max(self.budget // rounds, 1)
        tried: Set[int] = set(seeds)
        found: Set[int] = set()
        self.history = []
        for round_index in range(rounds):
            allocation = self._allocate(weights, per_round)
            candidates: Set[int] = set()
            for region, count in allocation.items():
                fresh = self._region_candidates(
                    region, regions[region], count, rng
                )
                candidates |= fresh - tried
            if not candidates:
                break
            tried |= candidates
            responsive = set(probe_fn(candidates))
            found |= responsive
            # reward update: hits per region, blended with exploration
            hits_by_region: Dict[int, int] = {region: 0 for region in weights}
            for address in responsive:
                region = self._region_of(address)
                if region in hits_by_region:
                    hits_by_region[region] += 1
                regions.setdefault(region, []).append(address)
            floor = self.exploration
            weights = {
                region: floor + (1.0 - floor) * hits_by_region.get(region, 0)
                for region in weights
            }
            self.history.append(
                SixHitRound(
                    round_index=round_index,
                    probed=len(candidates),
                    hits=len(responsive),
                    region_weights=dict(weights),
                )
            )
        return found

    def _generate(self, seeds: Sequence[int]) -> Set[int]:
        """Feedback-free fallback: one uniform allocation round."""
        rng = random.Random(stable_hash(self._seed, "6hit-flat", len(seeds)))
        regions: Dict[int, List[int]] = {}
        for seed in set(seeds):
            regions.setdefault(self._region_of(seed), []).append(seed)
        if not regions:
            return set()
        allocation = self._allocate({region: 1.0 for region in regions}, self.budget)
        candidates: Set[int] = set()
        for region, count in allocation.items():
            candidates |= self._region_candidates(region, regions[region], count, rng)
        return candidates
