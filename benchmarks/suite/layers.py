"""Per-layer timing from outside ``src/``: wrappers on live objects.

The benchmark's own code replaces the public entry points of each layer
on the objects a campaign uses (instance attributes shadow the class
methods they wrap), counts the calls and records each call's
``time.monotonic`` interval.  Nothing inside the program is changed.

Every wrapped entry point has an expected call count derived from the
campaign plan.  A refactor that routes around a wrapper, for example by
calling a layer through a new object, fails the run naming the entry
point instead of quietly reporting zero seconds for that layer.
"""

from __future__ import annotations

import contextlib
import os
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

Interval = Tuple[float, float]

#: The per-scan timer; not a layer.
RUN_SCAN = "HitlistService.run_scan"

#: Entry points and the per-layer time metric each one feeds.
LAYER_ENTRIES: Dict[str, str] = {
    "InputSource.collect": "sources.collect_s",
    "AliasedPrefixDetection.run": "apd.run_s",
    "AliasedPrefixDetection.retest_followups": "apd.run_s",
    "IncrementalScheduler.plan": "sched.plan_s",
    "IncrementalScheduler.carried_scan": "sched.carried_scan_s",
    "IncrementalScheduler.absorb": "sched.absorb_s",
    "ScanEngine.scan_all_protocols": "engine.scan_s",
    "GfwFilter.clean_scan": "gfw.clean_s",
    "YarrpTracer.trace_targets": "yarrp.trace_s",
    "SnapshotStore.commit": "store.commit_s",
    "checkpoint_service": "checkpoint.write_s",
}


class LayerTracer:
    """Call counts and call intervals per wrapped entry point."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.intervals: Dict[str, List[Interval]] = {}
        #: outermost layer calls only, so nested wrappers count once
        self.covered: List[Interval] = []
        self._depth = 0

    def wrap(self, entry: str, func: Callable) -> Callable:
        """``func``, counted and timed as ``entry``."""
        self.calls.setdefault(entry, 0)
        intervals = self.intervals.setdefault(entry, [])
        layer = entry != RUN_SCAN

        def wrapper(*args, **kwargs):
            self.calls[entry] += 1
            outermost = layer and self._depth == 0
            self._depth += layer
            start = time.monotonic()
            try:
                return func(*args, **kwargs)
            finally:
                interval = (start, time.monotonic())
                self._depth -= layer
                intervals.append(interval)
                if outermost:
                    self.covered.append(interval)

        wrapper.__wrapped__ = func
        return wrapper


def probe_wrapper(calls: int = 50_000) -> Dict[str, Union[int, Interval]]:
    """Intervals of ``calls`` calls of a no-op, bare and through a wrapper.

    Their difference per call is what a wrapper adds to each call it
    times: the tracing overhead of a campaign is that times its wrapped
    calls.
    """
    def noop():
        return None

    intervals = {}
    for kind, func in (("bare", noop), ("wrapped", LayerTracer().wrap("probe", noop))):
        start = time.monotonic()
        for _ in range(calls):
            func()
        intervals[kind] = (start, time.monotonic())
    return {"calls": calls, **intervals}


def instrument(service, tracer: LayerTracer, layers: bool) -> None:
    """Install the wrappers on a live ``HitlistService``.

    ``run_scan`` is always wrapped: it times each scan.  With ``layers``
    the entry points of every layer the service owns are wrapped too.
    """
    service.run_scan = tracer.wrap(RUN_SCAN, service.run_scan)
    if not layers:
        return
    for source in service.sources:
        source.collect = tracer.wrap("InputSource.collect", source.collect)
    apd = service.apd
    apd.run = tracer.wrap("AliasedPrefixDetection.run", apd.run)
    apd.retest_followups = tracer.wrap(
        "AliasedPrefixDetection.retest_followups", apd.retest_followups)
    scheduler = service.scheduler
    for name in ("plan", "carried_scan", "absorb"):
        entry = f"IncrementalScheduler.{name}"
        if scheduler is None:
            tracer.calls.setdefault(entry, 0)
        else:
            setattr(scheduler, name, tracer.wrap(entry, getattr(scheduler, name)))
    engine = service.engine
    engine.scan_all_protocols = tracer.wrap(
        "ScanEngine.scan_all_protocols", engine.scan_all_protocols)
    gfw = service.gfw_filter
    gfw.clean_scan = tracer.wrap("GfwFilter.clean_scan", gfw.clean_scan)
    yarrp = service.tracer
    yarrp.trace_targets = tracer.wrap(
        "YarrpTracer.trace_targets", yarrp.trace_targets)


@contextlib.contextmanager
def write_path(tracer: LayerTracer, sizes: List[int]) -> Iterator[None]:
    """Wrap the publish store and checkpoint writer for one campaign.

    Both are reached only through module-level names (the store is
    created inside ``HitlistService.run``; the checkpoint writer is
    imported at call time), so they are patched there and restored on
    exit.  ``sizes`` receives the byte size of every checkpoint written.
    """
    from repro.publish.store import SnapshotStore
    from repro.runtime import checkpoint

    original_commit = SnapshotStore.commit
    original_write = checkpoint.checkpoint_service
    timed_commit = tracer.wrap("SnapshotStore.commit", original_commit)
    timed_write = tracer.wrap("checkpoint_service", original_write)

    def commit(store, scan_day, artifacts):
        return timed_commit(store, scan_day, artifacts)

    def write(service, path, schedule):
        target = timed_write(service, path, schedule)
        sizes.append(os.path.getsize(target))
        return target

    SnapshotStore.commit = commit
    checkpoint.checkpoint_service = write
    try:
        yield
    finally:
        SnapshotStore.commit = original_commit
        checkpoint.checkpoint_service = original_write


def expected_calls(
    scans: int,
    sources: int,
    incremental: bool,
    publish: bool,
    checkpoint_every: Optional[int],
    layers: bool,
) -> Dict[str, int]:
    """Planned call count of every wrapped entry point for one campaign.

    The benchmark's campaigns inject no faults, so no scan stands down:
    every scan collects from every source, runs APD, probes, cleans,
    traces and (when publishing) commits.  The bootstrap adds one APD
    round and one follow-up re-test.
    """
    expected = {RUN_SCAN: scans}
    if not layers:
        return expected
    writes = 0
    if checkpoint_every:
        writes = sum(
            1 for done in range(1, scans + 1)
            if done % checkpoint_every == 0 or done == scans
        )
    expected.update({
        "InputSource.collect": scans * sources,
        "AliasedPrefixDetection.run": scans + 1,
        "AliasedPrefixDetection.retest_followups": 1,
        "IncrementalScheduler.plan": scans if incremental else 0,
        "IncrementalScheduler.carried_scan": scans if incremental else 0,
        "IncrementalScheduler.absorb": scans if incremental else 0,
        "ScanEngine.scan_all_protocols": scans,
        "GfwFilter.clean_scan": scans,
        "YarrpTracer.trace_targets": scans,
        "SnapshotStore.commit": scans if publish else 0,
        "checkpoint_service": writes,
    })
    return expected


def check_coverage(expected: Dict[str, int], calls: Dict[str, int]) -> List[str]:
    """One message per entry point whose observed count differs."""
    problems = []
    for entry, want in sorted(expected.items()):
        got = calls.get(entry, 0)
        if got != want:
            problems.append(
                f"wrapper coverage: {entry} called {got} times, expected "
                f"{want}; the campaign no longer reaches this layer through "
                f"the wrapped entry point"
            )
    return problems
