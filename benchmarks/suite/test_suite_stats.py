"""The tail-percentile rule, order statistics and the reference clock."""

import statistics

import pytest

import refclock
from refclock import REF_FSYNC_S, REF_KERNEL_S, SpeedSeries
from stats import TAIL_SUPPORT, beyond, highest_supported, percentile, quartiles, spread
from workload import CAMPAIGNS


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([3.0], 80) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_beyond_counts_samples_strictly_above():
    assert beyond(100, 90) == 10
    assert beyond(61, 80) == 12
    assert beyond(61, 90) == 6
    assert all(beyond(n, 100) == 0 for n in (1, 7, 1000))


@pytest.mark.parametrize("n, expected", [
    (4, None), (39, None), (40, 75), (50, 80), (61, 80), (99, 80),
    (100, 90), (999, 90), (1000, 99), (300000, 99),
])
def test_highest_supported_percentile(n, expected):
    pct = highest_supported(n)
    assert pct == expected
    if pct is not None:
        assert beyond(n, pct) >= TAIL_SUPPORT


def test_workload_tails():
    """p80 of 61 scans, no percentile for 4 scans, p99 of a serve batch."""
    from repro.simnet import small_config

    from workload import BATCH_REQUESTS, CONNECTIONS, days_of

    config = small_config(7)
    scans = {name: len(days_of(spec, config)) for name, spec in CAMPAIGNS.items()}
    assert {name: highest_supported(n) for name, n in scans.items()} == {
        "steady": 80, "incremental": 80, "gfw-era": None}
    assert highest_supported(CONNECTIONS * BATCH_REQUESTS) == 99


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == {"q1": q1, "median": median, "q3": q3, "n": 10}
    assert spread(values) == pytest.approx((q3 - q1) / median)


def test_speed_series_scales_by_nearby_kernels():
    # one kernel run per 10 ms; the machine runs at half speed after t=1
    samples = [(t / 100, REF_KERNEL_S if t < 100 else 2 * REF_KERNEL_S)
               for t in range(200)]
    speed = SpeedSeries(samples)
    # wall time per 10 ms step outside the kernel run
    fast, slow = 0.01 - REF_KERNEL_S, 0.01 - 2 * REF_KERNEL_S
    assert speed.raw((0.2, 0.6)) == pytest.approx(40 * fast)
    assert speed.scale((0.2, 0.6)) == pytest.approx(40 * fast)
    assert speed.raw((1.2, 1.6)) == pytest.approx(40 * slow)
    assert speed.scale((1.2, 1.6)) == pytest.approx(20 * slow)
    assert speed.factor(1.505, 1.506) == pytest.approx(0.5)
    assert speed.total([(0.2, 0.6), (1.2, 1.6)]) == pytest.approx(40 * fast + 20 * slow)
    # before the first sample the first speed holds
    assert speed.scale((-1.0, 0.0)) == pytest.approx(1.0)


def test_kernel_runs_are_cut_out():
    samples = [(t / 100, REF_KERNEL_S) for t in range(20)]
    speed = SpeedSeries(samples)
    assert speed.scale((0.05, 0.05 + REF_KERNEL_S)) == 0.0
    assert speed.raw((0.05, 0.05 + REF_KERNEL_S / 2)) == 0.0
    assert speed.raw((0.05, 0.07)) == pytest.approx(0.02 - 2 * REF_KERNEL_S)


def test_speed_series_parts_add_up():
    samples = [(t / 100, REF_KERNEL_S * (1 + (t * 7919 % 13) / 10)) for t in range(200)]
    speed = SpeedSeries(samples)
    whole = speed.scale((0.3, 1.7))
    parts = speed.total([(0.3, 0.95), (0.95, 1.2), (1.2, 1.7)])
    assert parts == pytest.approx(whole)
    assert 0 < speed.scale((0.5, 0.6)) < speed.scale((0.3, 1.7))


def test_kernel_runs():
    assert 0 < refclock.kernel_seconds() < 1


def test_flushes_are_charged_a_nominal_time():
    samples = [(t / 100, REF_KERNEL_S) for t in range(20)]
    flush = (0.0525, 0.0585)
    speed = SpeedSeries(samples, [flush])
    outside = 0.02 - 2 * REF_KERNEL_S
    assert speed.raw((0.05, 0.07)) == pytest.approx(outside)
    assert speed.scale((0.05, 0.07)) == pytest.approx(outside - 0.006 + REF_FSYNC_S)
    # parts still add up: the flush lies in exactly one of them
    assert speed.total([(0.05, 0.06), (0.06, 0.07)]) == pytest.approx(
        speed.scale((0.05, 0.07)))


def test_time_flushes_records_every_fsync(tmp_path, monkeypatch):
    import os

    monkeypatch.setattr(os, "fsync", os.fsync)
    flushes = refclock.time_flushes()
    with open(tmp_path / "f", "wb") as handle:
        handle.write(b"x")
        handle.flush()
        os.fsync(handle.fileno())
    assert len(flushes) == 1 and flushes[0][0] <= flushes[0][1]


def test_sampler_runs_the_kernel_between_stretches_of_work():
    import signal
    import time

    sampler = refclock.Sampler().start()
    deadline = time.monotonic() + 0.45
    while time.monotonic() < deadline:
        sum(range(1000))
    samples = sampler.stop()
    assert len(samples) >= 3
    # one run at a time, and none after stop()
    assert all(a + d <= b for (a, d), (b, _) in zip(samples, samples[1:]))
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
