"""Fused-scan micro-benchmark: one scan day.

Times one full five-protocol scan day over the default-scale target pool
through the service's own scanner (``service.engine``, member 0 of its
fleet) and writes the timing to ``results/perf_scan.txt``.

The figure isolates the probe stage from the rest of the service loop;
``bench_service_runtime.py`` measures the end-to-end effect and
``bench_incremental_scan.py`` gates the incremental scheduler's
divergence and probe-reduction floors.
"""

import time

from repro.hitlist import HitlistService
from repro.hitlist.service import ServiceSettings

SCAN_DAY = 0
QNAME = "www.google.com"


def test_perf_scan_fused_day(world, config, emit):
    settings = ServiceSettings(gfw_filter_deploy_day=config.gfw_filter_deploy_day)
    service = HitlistService(world, config, settings=settings)
    service.bootstrap(SCAN_DAY)
    targets = list(service._scan_pool)

    start = time.perf_counter()
    results, udp53 = service.engine.scan_all_protocols(targets, SCAN_DAY, QNAME)
    seconds = time.perf_counter() - start

    responders = frozenset().union(
        udp53.responders, *(result.responders for result in results.values())
    )
    emit("perf_scan", "\n".join([
        f"one scan day, {len(targets)} targets, 5 protocols",
        f"  fused      {seconds * 1000:8.1f} ms, {len(responders)} responders",
    ]))
