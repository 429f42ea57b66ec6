"""Fused-scan determinism: chunk boundaries must be invisible in the output.

The scanner walks a scan's targets in fixed chunks of
``repro.scan.engine.DEFAULT_CHUNK_SIZE`` (4096) and adds the chunk
results in chunk order.  At 4096 the small preset's early scans are a
single chunk each, so the multi-chunk merge is exercised here by
shrinking the constant: for any chunk size the service must produce
bit-identical scan snapshots, response tables, control-domain NS log,
deterministic-metrics views and checkpoint bytes, and a kill-and-resume
must finish identically.

The ``workers`` tests keep the counts the engine's former process pool
was checked at.  A pool of N workers split a scan into N shards; the
in-process scan reproduces that partition by cutting the first scan's
targets into N chunks (later scans are cut at the same chunk size).
"""

import pytest

from repro.hitlist import HitlistService
from repro.hitlist.history_io import history_summary
from repro.hitlist.service import ServiceSettings
from repro.obs import deterministic_metrics, registry_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.scan import ZMapScanner
from repro.scan import engine as engine_module
from repro.simnet import build_internet, small_config

SCAN_DAYS = list(range(0, 96, 8))
WORKER_COUNTS = (1, 2, 4, 7)
#: one-target chunks and a size that leaves a ragged last chunk
SMALL_CHUNK_SIZES = (1, 7)
#: checkpoints (scans) a killed run writes before it dies
KILL_AFTER = 5


def _settings(config):
    return ServiceSettings(gfw_filter_deploy_day=config.gfw_filter_deploy_day)


def _campaign(config, checkpoint_dir):
    """Every observable output of one checkpointed campaign.

    Campaign qnames are not control names, so a last scan of the final
    pool at a control name fills the control-domain NS log.
    """
    world = build_internet(config)
    service = HitlistService(world, config, settings=_settings(config))
    scan = service.engine.scan_all_protocols
    tables = []

    def recording_scan(targets, day, qname, carried=None):
        results, udp53 = scan(targets, day, qname, carried)
        tables.append((day, qname, dict(udp53.responses)))
        return results, udp53

    service.engine.scan_all_protocols = recording_scan
    for stale in checkpoint_dir.iterdir():
        stale.unlink()
    history = service.run(
        SCAN_DAYS, checkpoint_every=1, checkpoint_path=str(checkpoint_dir)
    )
    outputs = {
        "snapshots": history.snapshots,
        "summary": history_summary(history),
        "retained": {
            day: (kept.responders, kept.injected, kept.aliased_prefixes)
            for day, kept in history.retained.items()
        },
        "tables": tables,
        "metrics": deterministic_metrics(registry_to_dict(service.metrics)),
        "checkpoints": {
            path.name: path.read_bytes()
            for path in sorted(checkpoint_dir.iterdir())
        },
        "chunks": service.metrics.counter_total("repro_engine_chunks_total"),
    }
    _results, control = scan(
        sorted(service.scan_pool), SCAN_DAYS[-1], f"h3f1.{world.control_domain}"
    )
    outputs["control"] = (dict(control.responses), list(world.control_ns_log))
    return outputs


def _shard_size(reference, workers):
    """The chunk size that cuts the first scan into ``workers`` chunks."""
    return -(-reference["snapshots"][0].scan_target_count // workers)


def _assert_same_outputs(outputs, reference, chunk_size):
    # the run really was cut finer than the reference
    assert outputs["chunks"] > reference["chunks"]
    assert reference["control"][1], "the control scan logs NS queries"
    for key in (
        "snapshots", "summary", "retained", "tables", "control", "metrics",
        "checkpoints",
    ):
        assert outputs[key] == reference[key], (
            f"{key} differs at chunk size {chunk_size}"
        )


@pytest.fixture(scope="module")
def config():
    return small_config()


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory):
    """One path for every run: the schedule embeds its checkpoint dir,
    so runs writing to distinct paths would differ by design."""
    return tmp_path_factory.mktemp("engine-checkpoints")


@pytest.fixture(scope="module")
def reference(config, checkpoint_dir):
    """The default-chunk campaign every other chunking must reproduce."""
    return _campaign(config, checkpoint_dir)


@pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
def test_worker_count_invisible_in_results(
    config, checkpoint_dir, reference, monkeypatch, workers
):
    chunk_size = _shard_size(reference, workers)
    monkeypatch.setattr(engine_module, "DEFAULT_CHUNK_SIZE", chunk_size)
    outputs = _campaign(config, checkpoint_dir)
    _assert_same_outputs(outputs, reference, chunk_size)


@pytest.mark.parametrize("chunk_size", SMALL_CHUNK_SIZES)
def test_small_chunks_invisible_in_results(
    config, checkpoint_dir, reference, monkeypatch, chunk_size
):
    monkeypatch.setattr(engine_module, "DEFAULT_CHUNK_SIZE", chunk_size)
    outputs = _campaign(config, checkpoint_dir)
    _assert_same_outputs(outputs, reference, chunk_size)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_checkpoint_bytes_worker_invariant(
    config, checkpoint_dir, reference, monkeypatch, workers
):
    """A run killed mid-campaign writes the reference's checkpoint bytes,
    and resuming it finishes identically."""
    monkeypatch.setattr(
        engine_module, "DEFAULT_CHUNK_SIZE", _shard_size(reference, workers)
    )

    class _Killed(Exception):
        pass

    service = HitlistService(build_internet(config), config, settings=_settings(config))
    original = service.run_scan
    executed = {"count": 0}

    def dying_run_scan(day, prev_day, force_full=False):
        if executed["count"] == KILL_AFTER:
            raise _Killed()
        executed["count"] += 1
        return original(day, prev_day, force_full=force_full)

    service.run_scan = dying_run_scan
    for stale in checkpoint_dir.iterdir():
        stale.unlink()
    with pytest.raises(_Killed):
        service.run(
            SCAN_DAYS, checkpoint_every=1, checkpoint_path=str(checkpoint_dir)
        )
    written = sorted(path.name for path in checkpoint_dir.iterdir())
    assert written == sorted(reference["checkpoints"])[:KILL_AFTER]
    for name in written:
        assert (checkpoint_dir / name).read_bytes() == reference["checkpoints"][name]
    resumed = HitlistService.resume(str(checkpoint_dir / written[-1]))
    assert history_summary(resumed.run()) == reference["summary"]


def test_udp53_ground_truth_not_rewalked(config, monkeypatch):
    """The fused pass answers UDP/53 from the same probe_batch_arrays walk."""
    chunk_size = 256
    monkeypatch.setattr(engine_module, "DEFAULT_CHUNK_SIZE", chunk_size)
    service = HitlistService(build_internet(config), config, settings=_settings(config))
    service.bootstrap(0)
    targets = list(service._scan_pool)
    scanner = service.engine
    world = service.internet

    calls = {"probe_batch": 0}
    original = world.probe_batch_arrays

    def counting_probe_batch(*args, **kwargs):
        calls["probe_batch"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(world, "probe_batch_arrays", counting_probe_batch)
    monkeypatch.setattr(
        world, "dns_probe",
        lambda *a, **k: pytest.fail("engine must not re-walk via dns_probe"),
    )
    results, udp = scanner.scan_all_protocols(targets, 0, "www.google.com")
    expected_chunks = -(-len(targets) // chunk_size)
    assert calls["probe_batch"] == expected_chunks
    assert udp.responders, "fused pass still finds UDP/53 responders"


def test_scanner_outside_a_fleet_records_chunk_metrics(config):
    """A metrics-bearing scanner used on its own runs the same fused
    scan as a fleet member: chunk and fused-target metrics included."""
    world = build_internet(config)
    metrics = MetricsRegistry()
    scanner = ZMapScanner(world, metrics=metrics)
    targets = sorted(world.ground_truth.get("initial_input"))
    scanner.scan_all_protocols(targets, 0, "www.google.com")
    chunks = -(-len(targets) // engine_module.DEFAULT_CHUNK_SIZE)
    assert metrics.counter_total("repro_engine_chunks_total") == chunks
    assert metrics.counter_total("repro_engine_fused_targets_total") == len(targets)
    assert scanner.probes_sent == 5 * len(targets)
    assert metrics.counter_total("repro_probes_sent_total") == scanner.probes_sent
