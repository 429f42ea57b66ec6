"""Yarrp-style randomized traceroute engine.

The hitlist service traceroutes all scan targets to discover new
candidate addresses (Fig. 1 of the paper).  Discovered hops — especially
rotating last-hop CPE addresses — are the paper's main input-bias and
GFW-trigger mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Set

from repro._util import mix64
from repro.obs.metrics import MetricsRegistry
from repro.runtime.faults import FaultPlan
from repro.scan.blocklist import Blocklist
from repro.simnet.internet import SimInternet

_M64 = 0xFFFFFFFFFFFFFFFF
# SplitMix64 finalizer constants (kept in sync with repro._util.mix64)
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB


@dataclass
class TraceRunResult:
    """Hops discovered by one traceroute run."""

    day: int
    targets_traced: int = 0
    hops: Set[int] = field(default_factory=set)


class YarrpTracer:
    """Traces batches of targets and collects hop addresses."""

    def __init__(
        self,
        internet: SimInternet,
        blocklist: Optional[Blocklist] = None,
        sample_rate: float = 1.0,
        seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not 0.0 < sample_rate <= 1.0:
            raise ValueError(f"sample rate out of range: {sample_rate}")
        self._internet = internet
        self._blocklist = blocklist or Blocklist()
        self._sample_rate = sample_rate
        self._sample_threshold = int(sample_rate * float(1 << 64))
        self._seed = seed
        self._fault_plan = fault_plan
        self._metrics = metrics
        if metrics is not None:
            self._m_targets = metrics.counter(
                "repro_trace_targets_total", "Targets traced by Yarrp runs.")
            self._m_hops = metrics.counter(
                "repro_trace_hops_total",
                "Distinct hop addresses discovered per traceroute run.")

    def trace_targets(self, targets: Iterable[int], day: int) -> TraceRunResult:
        """Traceroute every (sampled, non-blocked) target once.

        The sampled targets go to :meth:`SimInternet.trace_hops` in one
        batch, which traces each distinct route once and drops blocked
        hops.  During a vantage outage no traceroute leaves the scan
        host, so the run discovers nothing.
        """
        result = TraceRunResult(day=day)
        plan = self._fault_plan
        if plan is not None and plan.vantage_down(day):
            return result
        blocklist = self._blocklist
        blocked = blocklist.is_blocked if len(blocklist) else None
        sample_all = self._sample_rate >= 1.0
        if blocked is None and sample_all:
            traced = list(targets)
        else:
            day_hash = mix64(day ^ self._seed)
            threshold = self._sample_threshold
            traced = []
            for target in targets:
                if blocked is not None and blocked(target):
                    continue
                if not sample_all:
                    value = ((target & _M64) ^ (target >> 64) ^ day_hash) & _M64
                    value = ((value ^ (value >> 30)) * _MIX_C1) & _M64
                    value = ((value ^ (value >> 27)) * _MIX_C2) & _M64
                    if (value ^ (value >> 31)) >= threshold:
                        continue
                traced.append(target)
        result.targets_traced = len(traced)
        result.hops = self._internet.trace_hops(traced, day, blocked)
        if self._metrics is not None:
            self._m_targets.inc(result.targets_traced)
            self._m_hops.inc(len(result.hops))
        return result
