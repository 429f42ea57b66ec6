"""Scan-engine determinism: worker count must be invisible in the output.

The property under test (the engine's core contract): for any
``scan_workers`` value, the service produces bit-identical scan
snapshots, identical deterministic-metrics views, and byte-identical
checkpoints — sharding chunks across a process pool only changes wall
time, never results.
"""

import os

import pytest

from repro.hitlist import HitlistService
from repro.hitlist.history_io import history_summary
from repro.hitlist.service import ServiceSettings
from repro.obs import deterministic_metrics, registry_to_dict
from repro.protocols import Protocol
from repro.scan import ScanEngine
from repro.simnet import build_internet, small_config

SCAN_DAYS = list(range(0, 96, 8))
WORKER_COUNTS = (1, 2, 4, 7)
#: small enough to shard the small scenario's pool into many chunks
CHUNK_SIZE = 256


def _build(config, workers):
    settings = ServiceSettings(
        gfw_filter_deploy_day=config.gfw_filter_deploy_day,
        scan_workers=workers,
        scan_chunk_size=CHUNK_SIZE,
    )
    return HitlistService(build_internet(config), config, settings=settings)


def _run(config, workers):
    service = _build(config, workers)
    history = service.run(SCAN_DAYS)
    metrics = deterministic_metrics(registry_to_dict(service.metrics))
    return history, metrics


@pytest.fixture(scope="module")
def config():
    return small_config()


@pytest.fixture(scope="module")
def reference(config):
    """The single-worker run every other worker count must reproduce."""
    return _run(config, workers=1)


@pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
def test_worker_count_invisible_in_results(config, reference, workers):
    ref_history, ref_metrics = reference
    history, metrics = _run(config, workers)

    assert history.snapshots == ref_history.snapshots
    assert history_summary(history) == history_summary(ref_history)
    assert set(history.retained) == set(ref_history.retained)
    for day in ref_history.retained:
        assert history.retained[day].responders == ref_history.retained[day].responders
        assert history.retained[day].injected == ref_history.retained[day].injected
        assert (
            history.retained[day].aliased_prefixes
            == ref_history.retained[day].aliased_prefixes
        )
    assert metrics == ref_metrics


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory):
    """Shared across the worker parametrization so blobs can be compared."""
    return tmp_path_factory.mktemp("engine-checkpoints")


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_checkpoint_bytes_worker_invariant(config, checkpoint_dir, workers, reference):
    """Kill-and-resume checkpoints are byte-identical for any pool size."""
    kill_after = 3

    class _Killed(Exception):
        pass

    service = _build(config, workers)
    original = service.run_scan
    executed = {"count": 0}

    def dying_run_scan(day, prev_day, force_full=False):
        if executed["count"] == kill_after:
            raise _Killed()
        executed["count"] += 1
        return original(day, prev_day, force_full=force_full)

    service.run_scan = dying_run_scan
    # every worker count writes to the SAME path: the schedule embeds
    # its checkpoint dir, so distinct paths would differ by design
    target = checkpoint_dir / "work"
    if target.exists():
        for stale in target.iterdir():
            stale.unlink()
    else:
        target.mkdir()
    with pytest.raises(_Killed):
        service.run(SCAN_DAYS, checkpoint_every=1, checkpoint_path=str(target))
    files = sorted(f for f in os.listdir(target) if f.endswith(".ckpt"))
    assert len(files) == kill_after
    blobs = [(name, (target / name).read_bytes()) for name in files]

    marker = checkpoint_dir / "reference-checkpoints"
    if not marker.exists():
        marker.mkdir()
        for name, blob in blobs:
            (marker / name).write_bytes(blob)
    else:
        for name, blob in blobs:
            assert (marker / name).read_bytes() == blob, (
                f"checkpoint {name} differs at scan_workers={workers}"
            )

    # resuming the kill finishes the schedule bit-identically
    resumed = HitlistService.resume(str(target / files[-1]))
    ref_history, _ = reference
    assert history_summary(resumed.run()) == history_summary(ref_history)


def test_udp53_ground_truth_not_rewalked(config, monkeypatch):
    """The fused pass answers UDP/53 from the same probe_batch_arrays walk."""
    service = _build(config, workers=1)
    service.bootstrap(0)
    targets = list(service._scan_pool)
    scanner = service.scanner

    calls = {"probe_batch": 0}
    original = scanner._internet.probe_batch_arrays

    def counting_probe_batch(*args, **kwargs):
        calls["probe_batch"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(
        scanner._internet, "probe_batch_arrays", counting_probe_batch
    )
    monkeypatch.setattr(
        scanner._internet, "dns_probe",
        lambda *a, **k: pytest.fail("engine must not re-walk via dns_probe"),
    )
    engine = ScanEngine(scanner, workers=1, chunk_size=CHUNK_SIZE)
    results, udp = engine.scan_all_protocols(targets, 0, "www.google.com")
    expected_chunks = -(-len(targets) // CHUNK_SIZE)
    assert calls["probe_batch"] == expected_chunks
    assert udp.responders, "fused pass still finds UDP/53 responders"


def test_two_live_engines_do_not_clobber(config):
    """Two warm pools in one process each scan with their own scanner.

    Regression guard for the module-global worker-scanner footgun: the
    pool forked second used to capture whichever scanner the global held
    last.  Scanners are bound per pool via the executor initializer now,
    so interleaved parallel scans from two engines must each reproduce
    their own single-worker reference.
    """
    service_a = _build(config, workers=1)
    settings_b = ServiceSettings(
        gfw_filter_deploy_day=config.gfw_filter_deploy_day,
        scan_workers=1,
        scan_chunk_size=CHUNK_SIZE,
        retry_attempts=3,  # makes scanner B's draws observably different
    )
    service_b = HitlistService(build_internet(config), config, settings=settings_b)
    service_a.bootstrap(0)
    service_b.bootstrap(0)
    targets_a = list(service_a._scan_pool)
    targets_b = list(service_b._scan_pool)
    qname = "www.google.com"

    engines = [
        ScanEngine(service_a.scanner, workers=2, chunk_size=CHUNK_SIZE),
        ScanEngine(service_b.scanner, workers=2, chunk_size=CHUNK_SIZE),
        ScanEngine(service_a.scanner, workers=1, chunk_size=CHUNK_SIZE),
        ScanEngine(service_b.scanner, workers=1, chunk_size=CHUNK_SIZE),
    ]
    par_a, par_b, ref_a, ref_b = engines
    try:
        par_a.warm(len(targets_a))
        par_b.warm(len(targets_b))
        for day in (0, 8):
            got_a, udp_a = par_a.scan_all_protocols(targets_a, day, qname)
            got_b, udp_b = par_b.scan_all_protocols(targets_b, day, qname)
            want_a, udp_ref_a = ref_a.scan_all_protocols(targets_a, day, qname)
            want_b, udp_ref_b = ref_b.scan_all_protocols(targets_b, day, qname)
            assert got_a == want_a
            assert got_b == want_b
            assert udp_a.responders == udp_ref_a.responders
            assert udp_a.responses == udp_ref_a.responses
            assert udp_b.responders == udp_ref_b.responders
            assert udp_b.responses == udp_ref_b.responses
            # the guard only has teeth if the two scanners disagree
            assert udp_a.responders != udp_b.responders
    finally:
        for engine in engines:
            engine.close()
