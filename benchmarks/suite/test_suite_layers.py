"""Wrapper coverage: the guard names an entry point a campaign bypasses."""

import pytest

from layers import (
    RUN_SCAN, LayerTracer, check_coverage, expected_calls, instrument, write_path,
)


class _Layer:
    def __init__(self, *names):
        for name in names:
            setattr(self, name, lambda *args, **kwargs: None)


class StubService:
    """The attribute shape of ``HitlistService`` and its campaign loop.

    ``bypass=True`` models a refactor that drives scans through an
    internal method instead of ``run_scan``.
    """

    def __init__(self, bypass):
        self.bypass = bypass
        self.sources = [_Layer("collect"), _Layer("collect")]
        self.apd = _Layer("run", "retest_followups")
        self.scheduler = None
        self.engine = _Layer("scan_all_protocols")
        self.gfw_filter = _Layer("clean_scan")
        self.tracer = _Layer("trace_targets")

    def run_scan(self, day, prev_day):
        self._stages(day)

    def _stages(self, day):
        for source in self.sources:
            source.collect(day - 1, day)
        self.apd.run(day)
        self.engine.scan_all_protocols([], day, "q")
        self.gfw_filter.clean_scan(None)
        self.tracer.trace_targets([], day)

    def run(self, days):
        self.apd.run(days[0])
        self.apd.retest_followups(days[0])
        for index, day in enumerate(days):
            if self.bypass:
                self._stages(day)
            else:
                self.run_scan(day, days[index - 1])


@pytest.mark.parametrize("layers", [False, True])
def test_guard_passes_when_every_wrapper_is_reached(layers):
    tracer = LayerTracer()
    service = StubService(bypass=False)
    instrument(service, tracer, layers=layers)
    service.run([0, 2, 4])
    assert check_coverage(expected_calls(3, 2, False, False, None, layers), tracer.calls) == []
    assert len(tracer.intervals[RUN_SCAN]) == 3


@pytest.mark.parametrize("layers", [False, True])
def test_guard_fires_when_run_scan_is_bypassed(layers):
    tracer = LayerTracer()
    service = StubService(bypass=True)
    instrument(service, tracer, layers=layers)
    service.run([0, 2, 4])
    problems = check_coverage(expected_calls(3, 2, False, False, None, layers), tracer.calls)
    assert problems == [
        f"wrapper coverage: {RUN_SCAN} called 0 times, expected 3; the campaign "
        f"no longer reaches this layer through the wrapped entry point"
    ]


def test_nested_layer_calls_count_once_towards_coverage():
    tracer = LayerTracer()
    inner = tracer.wrap("GfwFilter.clean_scan", lambda: None)
    outer = tracer.wrap("ScanEngine.scan_all_protocols", lambda: inner())
    scan = tracer.wrap(RUN_SCAN, lambda: outer())
    scan()
    assert tracer.calls == {"GfwFilter.clean_scan": 1,
                            "ScanEngine.scan_all_protocols": 1, RUN_SCAN: 1}
    assert tracer.covered == tracer.intervals["ScanEngine.scan_all_protocols"]


@pytest.mark.parametrize("mode", ["full", "incremental"])
def test_expected_counts_match_a_real_campaign(mode, tmp_path, monkeypatch):
    """The planned counts hold for today's ``HitlistService``."""
    from repro.hitlist import HitlistService
    from repro.hitlist.service import ServiceSettings
    from repro.publish.store import SnapshotStore
    from repro.runtime import checkpoint
    from repro.simnet import build_internet, small_config

    monkeypatch.chdir(tmp_path)
    config = small_config(7)
    service = HitlistService(build_internet(config), config,
                             settings=ServiceSettings(scan_mode=mode))
    tracer = LayerTracer()
    instrument(service, tracer, layers=True)
    sizes = []
    commit, write = SnapshotStore.commit, checkpoint.checkpoint_service
    with write_path(tracer, sizes):
        service.run([0, 2, 4], publish_dir="publish", checkpoint_every=2,
                    checkpoint_path="campaign.ckpt")
    assert (SnapshotStore.commit, checkpoint.checkpoint_service) == (commit, write)
    expected = expected_calls(3, len(service.sources), mode == "incremental", True, 2, True)
    assert check_coverage(expected, tracer.calls) == []
    assert len(sizes) == 2 and all(size > 0 for size in sizes)
