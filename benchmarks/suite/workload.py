"""One benchmark episode in a fresh process; prints one JSON result line.

``run.py`` starts this file once per episode and once per extra set-up
sample; it is not meant to be run by hand.  A campaign episode runs one
``HitlistService.run`` over its workload's day window; a ``serve``
episode starts its own serving subprocess and drives a fixed number of
closed-loop request batches.  Timings leave this process as raw
``time.monotonic`` intervals (and raw nanosecond request latencies),
with the kernel samples and flushes that ``run.py`` needs to convert
them to reference seconds (see ``refclock``).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import http.client
import json
import os
import pathlib
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from refclock import MIN_SAMPLES, Sampler, sample, time_flushes

ROOT = pathlib.Path(__file__).resolve().parents[2]
WORK = ROOT / ".bench_build" / "suite"


@dataclass(frozen=True)
class Campaign:
    """A campaign workload: the small preset over one day window."""

    first_day: int
    last_day: int
    scan_mode: str
    publish: bool
    checkpoint_every: Optional[int]


CAMPAIGNS: Dict[str, Campaign] = {
    # days 0-120 end before the small preset's first GFW era (day 123):
    # forged answers reach only gfw-era
    "steady": Campaign(0, 120, "full", True, 10),
    "incremental": Campaign(0, 120, "incremental", False, None),
    # a cold start at 1279, four scans with forged UDP/53 answers, and the
    # purge at 1314; the filtered scans after it take a twentieth as long
    # each, so more of them would only pull the median scan down to them
    "gfw-era": Campaign(1279, 1314, "full", False, None),
}

#: set-up samples per run: every episode gives one, set-up-only
#: processes add the rest
SETUP_SAMPLES = 5

#: serve: snapshots x addresses of the synthetic store
STORE_SNAPSHOTS, STORE_ADDRESSES = 10, 2000
#: serve: keep-alive connections, each a closed loop
CONNECTIONS = 2
#: serve: requests per connection per measured batch
BATCH_REQUESTS = 5000
#: serve: requests per connection between two kernel runs; the kernel
#: has to follow the machine's speed closely to pin the closed loop's
#: speed, and 500 requests take about 60 ms
RUN_REQUESTS = 500
#: serve: measured batches per episode; a run pools the batches of its
#: episodes, each with a client and a server process of its own, since
#: some server processes ran a fifth slower than the rest for their
#: whole life while the kernel beside them did not slow
EPISODE_BATCHES = 4
#: serve: timed passes of the bare ``PublishApp.handle`` over the corpus
APP_PASSES = 3
#: rate limit far above any reachable request rate: no request sees 429
UNLIMITED = "1e9"
MIX = (("full", 30), ("cond", 35), ("delta", 15), ("query", 10), ("manifest", 10))


def days_of(spec: Campaign, config) -> List[int]:
    from repro.hitlist import default_scan_days

    return [
        day for day in default_scan_days(config.final_day)
        if spec.first_day <= day <= spec.last_day
    ]


def address_digest(addresses) -> str:
    """SHA-256 over the sorted addresses as 16-byte big-endian words."""
    digest = hashlib.sha256()
    for address in sorted(addresses):
        digest.update(address.to_bytes(16, "big"))
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------------
# campaigns


def campaign(name: str, seed: int, spawned_at: float, traced: bool,
             setup_only: bool) -> Dict[str, object]:
    spec = CAMPAIGNS[name]
    from repro.hitlist import HitlistService
    from repro.hitlist.service import ServiceSettings
    from repro.simnet import build_internet, small_config

    config = small_config(seed)
    built = time.monotonic()
    world = build_internet(config)
    build = (built, time.monotonic())
    service = HitlistService(world, config, settings=ServiceSettings(
        gfw_filter_deploy_day=config.gfw_filter_deploy_day,
        scan_mode=spec.scan_mode,
    ))
    result: Dict[str, object] = {"setup": (spawned_at, time.monotonic())}
    if setup_only:
        return result

    from layers import (
        RUN_SCAN, LayerTracer, check_coverage, expected_calls, instrument, probe_wrapper,
        write_path,
    )

    days = days_of(spec, config)
    tracer = LayerTracer()
    instrument(service, tracer, layers=traced)
    checkpoint_sizes: List[int] = []
    kwargs = {}
    if spec.publish:
        kwargs["publish_dir"] = "publish"
    if spec.checkpoint_every:
        kwargs.update(checkpoint_every=spec.checkpoint_every,
                      checkpoint_path="campaign.ckpt")
    with write_path(tracer, checkpoint_sizes) if traced else contextlib.nullcontext():
        start = time.monotonic()
        history = service.run(days, **kwargs)
        run = (start, time.monotonic())

    snapshots = history.snapshots

    def counter(family: str) -> int:
        return int(history.metrics.counter_total(f"repro_{family}_total"))

    errors = check_coverage(
        expected_calls(len(days), len(service.sources),
                       spec.scan_mode == "incremental", spec.publish,
                       spec.checkpoint_every, layers=traced),
        tracer.calls,
    )
    if len(snapshots) != len(days):
        errors.append(f"scans: {len(snapshots)} snapshots for {len(days)} days")
    if history.final.day != days[-1]:
        errors.append(f"final: retained day {history.final.day}, expected {days[-1]}")
    final = history.final.cleaned_any()
    if not final:
        errors.append("final: empty cleaned hitlist")
    pool = sum(snapshot.scan_target_count for snapshot in snapshots)
    result.update({
        "run": run,
        "scans": tracer.intervals[RUN_SCAN],
        "work": pool,
        "attempted": len(snapshots),
        "failed": sum(1 for snapshot in snapshots if snapshot.degraded),
        "rss_mb": peak_rss_mb(),
        "digest": address_digest(final),
        "counts": {
            "scans": len(snapshots),
            "final_size": len(final),
            "probes_sent": counter("probes_sent"),
            "engine_targets": counter("engine_fused_targets"),
            "gfw_injected": counter("gfw_injected_detected"),
            "store_bytes": counter("publish_stored_bytes"),
            "checkpoint_final_bytes": (
                os.path.getsize("campaign.ckpt") if spec.checkpoint_every else 0),
        },
        "errors": errors,
    })
    if traced:
        chunks = history.metrics.get("repro_engine_chunk_seconds")
        calls = tracer.calls
        result.update({
            "build": build,
            "layers": tracer.intervals,
            "covered": tracer.covered,
            "wrapped_calls": sum(n for entry, n in calls.items() if entry != RUN_SCAN),
            "wrapper_probe": probe_wrapper(),
            "chunk_raw_s": sum(series.sum for _key, series in chunks.series_items()),
            "layer_counts": {
                "sources.calls": calls["InputSource.collect"],
                "apd.calls": (calls["AliasedPrefixDetection.run"]
                              + calls["AliasedPrefixDetection.retest_followups"]),
                "apd.prefixes_tested": counter("apd_prefixes_tested"),
                "sched.carried_targets": counter("sched_carried_targets"),
                "sched.probed_share": sum(s.probed_target_count for s in snapshots) / pool,
                "engine.targets": counter("engine_fused_targets"),
                "engine.probes": counter("probes_sent"),
                "gfw.injected": counter("gfw_injected_detected"),
                "yarrp.hops": counter("trace_hops"),
                "store.commits": calls["SnapshotStore.commit"],
                "store.bytes": counter("publish_stored_bytes"),
                "checkpoint.writes": calls["checkpoint_service"],
                "checkpoint.bytes": sum(checkpoint_sizes),
            },
        })
    return result


# ---------------------------------------------------------------------------
# serve


def build_store(root: str, snapshots: int, addresses: int):
    """The synthetic store of ``benchmarks/bench_serve_load.py``."""
    from repro.net.address import format_ipv6
    from repro.publish.store import SnapshotStore

    store = SnapshotStore(root)
    base = [0x2001_0DB8 << 96 | n for n in range(addresses)]
    for day in range(snapshots):
        churn = {0x2001_0DB8 << 96 | (10 * addresses + day * 97 + n)
                 for n in range(day * 3)}
        members = sorted(set(base[day % 7:]) | churn)
        body = "".join(format_ipv6(a) + "\n" for a in members)
        icmp = "".join(format_ipv6(a) + "\n" for a in members if a % 3)
        store.commit(day, {
            "responsive": body,
            "icmp": icmp,
            "aliased": "2001:db8:dead::/48\n2001:db8:beef::/48\n",
        })
    return store


Request = Tuple[str, Tuple[Tuple[str, str], ...]]


def build_corpus(store, rng: random.Random, requests: int) -> List[Request]:
    """One connection's request sequence, drawn from the traffic mix."""
    ids = store.snapshot_ids()
    etag = f'"{store.manifest(ids[-1]).digest_of("responsive")}"'
    kinds = [kind for kind, weight in MIX for _ in range(weight)]
    corpus: List[Request] = []
    for _ in range(requests):
        kind = rng.choice(kinds)
        if kind == "full":
            name = rng.choice(("responsive", "icmp"))
            corpus.append((f"/v1/snapshots/{rng.choice(ids)}/{name}", ()))
        elif kind == "cond":
            corpus.append(("/v1/latest/responsive", (("If-None-Match", etag),)))
        elif kind == "delta":
            start = rng.randrange(len(ids) - 1)
            corpus.append((f"/v1/delta/{ids[start]}/{ids[start + 1]}", ()))
        elif kind == "query":
            corpus.append(("/v1/query?prefix=2001:db8::/32&protocol=icmp", ()))
        else:
            corpus.append((rng.choice(("/v1/snapshots", "/v1/latest")), ()))
    return corpus


def request_headers(client_id: str, extra) -> Dict[str, str]:
    headers = {"Accept-Encoding": "gzip", "X-Client-Id": client_id}
    headers.update(extra)
    return headers


class Consumer(asyncio.Protocol):
    """A keep-alive connection that sends each request after the last reply."""

    def __init__(self, host: str, port: int, client_id: str,
                 corpus: List[Request]) -> None:
        self.raw = []
        for target, extra in corpus:
            head = [f"GET {target} HTTP/1.1", f"Host: {host}:{port}"]
            head.extend(f"{k}: {v}" for k, v in request_headers(client_id, extra).items())
            self.raw.append(("\r\n".join(head) + "\r\n\r\n").encode("ascii"))
        self.host, self.port = host, port
        self.transport = None
        self.done: Optional[asyncio.Future] = None

    async def connect(self) -> None:
        loop = asyncio.get_running_loop()
        await loop.create_connection(lambda: self, self.host, self.port)

    async def run(self, first: int = 0, count: Optional[int] = None) -> None:
        """Send requests ``first`` to ``first + count`` of the corpus, one at a time."""
        self.done = asyncio.get_running_loop().create_future()
        self.buffer, self.body_left, self.index = b"", 0, first
        self.stop = len(self.raw) if count is None else first + count
        self.latencies_ns: List[int] = []
        self.statuses: List[int] = []
        self._t0 = time.perf_counter_ns()
        self.transport.write(self.raw[first])
        await self.done

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        if self.done is not None and not self.done.done():
            self.done.set_exception(exc or ConnectionError("server closed the connection"))

    def data_received(self, data: bytes) -> None:
        buf = self.buffer + data if self.buffer else data
        pos, size = 0, len(buf)
        while pos < size and not self.done.done():
            if self.body_left:
                take = min(self.body_left, size - pos)
                self.body_left -= take
                pos += take
                if self.body_left:
                    break
                self._complete()
                continue
            end = buf.find(b"\r\n\r\n", pos)
            if end < 0:
                break
            self._status = int(buf[pos + 9:pos + 12])
            marker = buf.find(b"Content-Length:", pos, end)
            self.body_left = 0
            if marker >= 0:
                stop = buf.find(b"\r\n", marker, end)
                self.body_left = int(buf[marker + 15:stop if stop >= 0 else end])
            pos = end + 4
            if not self.body_left:
                self._complete()
        self.buffer = buf[pos:] if pos < size else b""

    def _complete(self) -> None:
        now = time.perf_counter_ns()
        self.latencies_ns.append(now - self._t0)
        self.statuses.append(self._status)
        self.index += 1
        if self.index >= self.stop:
            self.done.set_result(None)
            return
        self._t0 = now
        self.transport.write(self.raw[self.index])


class Server:
    """``python -m repro.cli serve`` over a store, in its own process."""

    def __init__(self, store_dir: pathlib.Path) -> None:
        self.store_dir = store_dir
        self.port_file = store_dir.parent / "port"
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> None:
        """Start the server (on this process's core) and wait for its first 200."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--store", str(self.store_dir), "--port", "0",
             "--port-file", str(self.port_file),
             "--rate", UNLIMITED, "--burst", UNLIMITED],
            env=env, cwd=str(ROOT),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and self.process.poll() is None:
            text = self.port_file.read_text() if self.port_file.exists() else ""
            if text.strip():
                self.port = int(text)
                if self.get("/v1/latest")[0] == 200:
                    return
            time.sleep(0.005)
        raise RuntimeError("serve: the server never answered 200 on /v1/latest")

    def get(self, target: str, headers: Optional[Dict[str, str]] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", target, headers=headers or {})
            response = conn.getresponse()
            return response.status, response.read()
        except OSError:
            return 0, b""
        finally:
            conn.close()

    def scrape(self) -> Dict[str, float]:
        """``/metrics`` counter totals by family."""
        status, body = self.get("/metrics", {"X-Client-Id": "bench-metrics"})
        totals: Dict[str, float] = {}
        for line in body.decode("utf-8").splitlines() if status == 200 else ():
            if line and not line.startswith("#"):
                name, _, value = line.partition(" ")
                name = name.partition("{")[0]
                totals[name] = totals.get(name, 0.0) + float(value)
        return totals

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process = None


def serve(seed: int, traced: bool, setup_only: bool) -> Dict[str, object]:
    """One set-up, a warm-up run, then ``EPISODE_BATCHES`` measured batches.

    Client and server share one core.  In a closed loop only one of them
    runs at a time, and on a shared host waking a second, idle virtual
    core for every request made throughput swing threefold from minute
    to minute.  A batch is ``BATCH_REQUESTS // RUN_REQUESTS`` runs of
    requests with a kernel run before each.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.publish.server import PublishApp
    from repro.publish.store import SnapshotStore

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    flushes = time_flushes()
    speed: List[Tuple[float, float]] = []

    def tick() -> None:
        speed.append(sample())

    work = WORK / f"serve-{os.getpid()}"
    store_dir = work / "store"
    server = Server(store_dir)
    try:
        for _ in range(MIN_SAMPLES):
            tick()
        start = time.monotonic()
        build_store(str(store_dir), STORE_SNAPSHOTS, STORE_ADDRESSES)
        server.start()
        result: Dict[str, object] = {"setup": (start, time.monotonic()),
                                     "speed": speed, "flushes": flushes}
        tick()
        if setup_only:
            return result

        store = SnapshotStore(str(store_dir))
        rng = random.Random(seed)
        corpora = [build_corpus(store, rng, BATCH_REQUESTS) for _ in range(CONNECTIONS)]
        client_ids = [f"consumer-{index}" for index in range(CONNECTIONS)]
        app = PublishApp(SnapshotStore(str(store_dir)), metrics=MetricsRegistry(),
                         rate=float(UNLIMITED), burst=float(UNLIMITED))
        prepared = [
            [(target, {k.lower(): v for k, v in request_headers(cid, extra).items()})
             for target, extra in corpus]
            for cid, corpus in zip(client_ids, corpora)
        ]
        # the bare app's answer to every distinct request is the reference
        reference: Dict[Request, Tuple[int, str]] = {}
        for corpus, requests in zip(corpora, prepared):
            for key, (target, headers) in zip(corpus, requests):
                if key not in reference:
                    response = app.handle("GET", target, headers, lowered=True)
                    reference[key] = (response.status,
                                      hashlib.sha256(response.body).hexdigest())
        errors: List[str] = []
        for (target, extra), (status, body_sha) in sorted(reference.items()):
            got, body = server.get(target, request_headers("verify", extra))
            if (got, hashlib.sha256(body).hexdigest()) != (status, body_sha):
                errors.append(f"response: GET {target} {dict(extra)} answered {got}, "
                              f"not PublishApp.handle's {status} and body")
        want_statuses = [[reference[key][0] for key in corpus] for corpus in corpora]

        consumers = [Consumer("127.0.0.1", server.port, cid, corpus)
                     for cid, corpus in zip(client_ids, corpora)]
        #: per batch, the interval and the request latencies of each run
        batches: List[List[Tuple[float, float]]] = []
        latencies: List[List[List[int]]] = []
        counts = {"attempted": 0, "failed": 0}

        async def batch() -> None:
            runs, run_latencies = [], []
            for first in range(0, BATCH_REQUESTS, RUN_REQUESTS):
                tick()
                start = time.monotonic()
                await asyncio.gather(*(c.run(first, RUN_REQUESTS) for c in consumers))
                runs.append((start, time.monotonic()))
                run_latencies.append([ns for c in consumers for ns in c.latencies_ns])
                for consumer, want in zip(consumers, want_statuses):
                    want = want[first:first + RUN_REQUESTS]
                    counts["attempted"] += len(want)
                    counts["failed"] += sum(s not in (200, 304) for s in consumer.statuses)
                    if consumer.statuses != want:
                        errors.append("response: a measured batch answered statuses "
                                      "that differ from PublishApp.handle's")
            batches.append(runs)
            latencies.append(run_latencies)

        async def drive() -> None:
            await asyncio.gather(*(c.connect() for c in consumers))
            await asyncio.gather(*(c.run(0, RUN_REQUESTS) for c in consumers))  # warm-up
            for _ in range(EPISODE_BATCHES):
                await batch()
            tick()
            for consumer in consumers:
                consumer.transport.close()

        try:
            asyncio.run(drive())
        except (OSError, ConnectionError) as error:
            errors.append(f"connection: {error}")
            counts["failed"] += 1
        result.update({
            "batches": batches,
            "batch_latencies_ns": latencies,
            "attempted": max(1, counts["attempted"]),
            "failed": counts["failed"],
            "digest": store.head_id(),
            "counts": {"snapshots": len(store.snapshot_ids()),
                       "distinct_requests": len(reference)},
            "errors": errors,
        })
        if traced:
            result.update(bare_app(app, prepared, tick))
            result["scraped"] = server.scrape()
        server.stop()
        result["rss_mb"] = peak_rss_mb()
        return result
    finally:
        server.stop()
        shutil.rmtree(work, ignore_errors=True)


def bare_app(app, prepared, tick) -> Dict[str, object]:
    """``PublishApp.handle`` over the same corpus, in-process, no sockets.

    ``tick`` adds a speed sample; it runs between passes.
    """
    handle = app.handle
    passes, latencies = [], []
    for _ in range(APP_PASSES):
        tick()
        times: List[int] = []
        start = time.monotonic()
        for requests in prepared:
            for target, headers in requests:
                began = time.perf_counter_ns()
                handle("GET", target, headers, lowered=True)
                times.append(time.perf_counter_ns() - began)
        passes.append((start, time.monotonic()))
        latencies.append(times)
    tick()
    return {"app_passes": passes, "app_latencies_ns": latencies}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(CAMPAIGNS) + ["serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(parents=True, exist_ok=True)
    if args.workload == "serve":
        result = serve(args.seed, args.traced, args.setup_only)
    else:
        flushes = time_flushes()
        sampler = Sampler().start()
        episode_dir = WORK / f"{args.workload}-{os.getpid()}"
        episode_dir.mkdir(parents=True)
        os.chdir(episode_dir)
        try:
            result = campaign(args.workload, args.seed, args.spawned_at,
                              args.traced, args.setup_only)
        finally:
            os.chdir(ROOT)
            shutil.rmtree(episode_dir, ignore_errors=True)
        speed = sampler.stop()
        while len(speed) < MIN_SAMPLES:
            speed.append(sample())
        result["speed"] = speed
        result["flushes"] = flushes
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
