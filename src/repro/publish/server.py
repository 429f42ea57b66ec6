"""Instrumented HTTP serving core for a snapshot store.

The heart is :class:`PublishApp`, a socket-free request handler —
``handle(method, target, headers, client)`` returns a
:class:`Response` — so every endpoint, cache and rate-limit behavior is
testable without binding a port, with a
:class:`~repro.obs.clock.FakeClock` making even ``Retry-After`` values
exact.  The one transport, :mod:`repro.publish.aserve` (asyncio,
keep-alive, ``os.sendfile``, one or N worker processes), adds only the
``Date`` header to what ``handle`` returns.

Endpoints (all ``GET``):

* ``/v1/snapshots`` — snapshot listing (id, scan day, parent, artifacts)
* ``/v1/snapshots/<id>`` — one manifest
* ``/v1/snapshots/<id>/<artifact>`` — a full artifact body
* ``/v1/latest`` and ``/v1/latest/<artifact>`` — the head snapshot
* ``/v1/delta/<from>/<to>`` — delta document between two snapshots
* ``/v1/query?prefix=…&protocol=…&asn=…`` — index query over the head
* ``/metrics`` — Prometheus text exposition of the serving registry

Full artifacts carry strong ETags (their SHA-256), JSON endpoints a
digest of their body; ``If-None-Match`` turns either into a 304.
Bodies ≥ 128 bytes gzip when the client accepts it (fixed ``mtime`` so
compression is deterministic).  Nothing immutable is computed twice on
the hot path: artifact blobs get their gzip bytes at commit time
(:mod:`repro.publish.store`) and are served from a read-through
hot-blob LRU cache (:mod:`repro.publish.cache`); derived JSON documents
(manifests, deltas, query results — immutable per snapshot id / head)
are rendered and gzipped once into a bounded render cache.  A repeated
fetch therefore performs zero compression calls —
``repro_serve_gzip_compress_total`` counts the (truly dynamic)
exceptions.  A conditional artifact refetch whose ETag matches never
touches blob bytes at all.  ``/v1`` traffic passes a per-client token
bucket; a drained bucket answers 429 with ``Retry-After``.  The client
key is the peer address unless the request carries an ``X-Client-Id``
header (load harnesses and reverse proxies use it to keep per-consumer
fairness).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple
from urllib.parse import parse_qs

from repro.net.address import AddressError, format_ipv6
from repro.net.prefix import IPv6Prefix
from repro.obs.clock import Clock, MonotonicClock
from repro.obs.export import to_prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.publish.cache import DEFAULT_CACHE_BYTES, BlobCache, store_loader
from repro.publish.delta import DeltaError, compute_delta, delta_to_json
from repro.publish.index import QueryIndex
from repro.publish.ratelimit import TokenBucket
from repro.publish.store import (
    GZIP_THRESHOLD,
    PublishError,
    SnapshotStore,
    compress_blob,
)

#: Hard cap on addresses returned by one /v1/query response.
QUERY_LIMIT = 10_000

#: Entry cap on the derived-document render cache (manifests, deltas,
#: query results).  Entries are small JSON documents; the cap bounds
#: pathological key diversity (e.g. query-parameter scans), not memory
#: in the common case.
RENDER_CACHE_ENTRIES = 512

#: Entry cap on the path → (endpoint, handler) routing memo.
ROUTE_CACHE_ENTRIES = 1024


@dataclass(slots=True)
class Response:
    """One HTTP response: status, headers and the exact body bytes.

    The optional fields are serving hints, not part of the HTTP
    contract: ``gzip_body`` is the precompressed encoding of ``body``
    (attached for immutable blobs so content negotiation never
    recompresses), and ``body_path`` — filled in by ``_finalize`` when
    the final body bytes live verbatim in a store file — lets a bridge
    hand the kernel the file directly (``os.sendfile``) instead of
    copying through userspace.
    """

    status: int
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    gzip_body: Optional[bytes] = None
    raw_path: Optional[str] = None
    gzip_path: Optional[str] = None
    body_path: Optional[str] = None


class PublishApp:
    """Socket-free request core shared by tests and the real server."""

    def __init__(
        self,
        store: SnapshotStore,
        metrics: Optional[MetricsRegistry] = None,
        clock: Optional[Clock] = None,
        rate: float = 50.0,
        burst: float = 100.0,
        rib=None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
    ) -> None:
        self.store = store
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self.limiter = TokenBucket(rate=rate, burst=burst, clock=self.clock)
        self._rib = rib
        self._index: Optional[QueryIndex] = None
        self._index_lock = threading.Lock()
        self._render_cache: "OrderedDict[tuple, Response]" = OrderedDict()
        self._render_lock = threading.Lock()
        # labels() resolution (set compare + tuple build) is measurable
        # at tens of thousands of req/s; series objects are stable, so
        # memoize them per (endpoint, status)
        self._series_cache: Dict[Tuple[str, int], tuple] = {}
        self._hit_series: Dict[str, object] = {}
        # routing is a pure function of the path; memoize it (bounded,
        # since clients control path diversity)
        self._route_cache: Dict[str, tuple] = {}
        self.blob_cache: Optional[BlobCache] = (
            BlobCache(cache_bytes, metrics=self.metrics, clock=self.clock)
            if cache_bytes > 0 else None
        )
        self._m_requests = self.metrics.counter(
            "repro_serve_requests_total",
            "HTTP requests served, by endpoint and status code.",
            ("endpoint", "status"), volatile=True)
        self._m_bytes = self.metrics.counter(
            "repro_serve_bytes_sent_total",
            "Response body bytes sent, by endpoint.",
            ("endpoint",), volatile=True)
        self._m_cache_hits = self.metrics.counter(
            "repro_serve_cache_hits_total",
            "Conditional requests answered 304 Not Modified, by endpoint.",
            ("endpoint",), volatile=True)
        self._m_ratelimited = self.metrics.counter(
            "repro_serve_ratelimit_drops_total",
            "Requests refused with 429 by the token bucket.", volatile=True)
        self._m_seconds = self.metrics.histogram(
            "repro_serve_request_seconds",
            "Wall-clock request handling duration, by endpoint.",
            ("endpoint",), volatile=True)
        self._m_compress = self.metrics.counter(
            "repro_serve_gzip_compress_total",
            "Gzip compressions performed on the serving path: render-"
            "cache fills (once per derived document) and truly dynamic "
            "bodies.  Immutable blobs are precompressed at commit time "
            "and never count here.",
            volatile=True)

    # ------------------------------------------------------------------
    # entry point

    def handle(
        self,
        method: str,
        target: str,
        headers: Optional[Mapping[str, str]] = None,
        client: str = "local",
        lowered: bool = False,
    ) -> Response:
        """Serve one request; never raises — errors become JSON bodies.

        ``lowered=True`` promises the header keys are already
        lowercase (the asyncio bridge normalizes while parsing), which
        skips one dict rebuild on the hot path.
        """
        if not lowered:
            headers = _lower_keys(headers or {})
        elif headers is None:
            headers = {}
        client = headers.get("x-client-id", client)
        start = self.clock.now()
        path, _, query_string = target.partition("?")
        route = self._route_cache.get(path)
        if route is None:
            normalized = path.rstrip("/") or "/"
            endpoint, handler = self._route(normalized)
            route = (endpoint, handler, normalized)
            if len(self._route_cache) < ROUTE_CACHE_ENTRIES:
                self._route_cache[path] = route
        endpoint, handler, path = route
        if method not in ("GET", "HEAD"):
            response = self._error(405, f"method {method} not allowed")
            response.headers["Allow"] = "GET, HEAD"
        elif handler is None:
            response = self._error(404, f"no such endpoint: {path}")
        else:
            if endpoint != "metrics":
                allowed, retry_after = self.limiter.allow(client)
                if not allowed:
                    self._m_ratelimited.inc()
                    response = self._error(429, "rate limit exceeded")
                    response.headers["Retry-After"] = (
                        self.limiter.retry_after_header(retry_after)
                    )
                    return self._finalize(
                        endpoint, response, headers, method, start
                    )
            try:
                query = parse_qs(query_string) if query_string else {}
                response = handler(path, query, headers)
            except (PublishError, DeltaError) as error:
                response = self._error(404, str(error))
            except ValueError as error:
                response = self._error(400, str(error))
        return self._finalize(endpoint, response, headers, method, start)

    def _route(self, path: str):
        if path == "/":
            return "root", self._handle_root
        if path == "/metrics":
            return "metrics", self._handle_metrics
        if path == "/v1/snapshots":
            return "snapshots", self._handle_snapshots
        if path == "/v1/latest":
            return "latest", self._handle_latest
        parts = path.strip("/").split("/")
        if parts[:2] == ["v1", "snapshots"] and len(parts) == 3:
            return "snapshot", self._handle_snapshot
        if parts[:2] == ["v1", "snapshots"] and len(parts) == 4:
            return "artifact", self._handle_artifact
        if parts[:2] == ["v1", "latest"] and len(parts) == 3:
            return "artifact", self._handle_latest_artifact
        if parts[:2] == ["v1", "delta"] and len(parts) == 4:
            return "delta", self._handle_delta
        if path == "/v1/query":
            return "query", self._handle_query
        return "unknown", None

    def _finalize(
        self,
        endpoint: str,
        response: Response,
        headers: Mapping[str, str],
        method: str,
        start: float,
    ) -> Response:
        etag = response.headers.get("ETag")
        if (
            etag is not None
            and response.status == 200
            and _etag_matches(etag, headers.get("if-none-match", ""))
        ):
            response = Response(
                304, {"ETag": etag, "Cache-Control": "no-cache"}, b""
            )
            hits = self._hit_series.get(endpoint)
            if hits is None:
                hits = self._hit_series[endpoint] = (
                    self._m_cache_hits.labels(endpoint=endpoint)
                )
            hits.inc()
        if (
            response.status == 200
            and len(response.body) >= GZIP_THRESHOLD
            and "gzip" in headers.get("accept-encoding", "")
        ):
            if response.gzip_body is not None:
                response.body = response.gzip_body
                response.body_path = response.gzip_path
            else:
                self._m_compress.inc()
                response.body = compress_blob(response.body)
                response.body_path = None
            response.headers["Content-Encoding"] = "gzip"
        elif response.status == 200 and response.body_path is None:
            response.body_path = response.raw_path
        response.headers.setdefault("Vary", "Accept-Encoding")
        response.headers["Content-Length"] = str(len(response.body))
        if method == "HEAD":
            response = Response(response.status, dict(response.headers), b"")
        fast = self._series_cache.get((endpoint, response.status))
        if fast is None:
            fast = self._series_cache[(endpoint, response.status)] = (
                self._m_requests.labels(
                    endpoint=endpoint, status=str(response.status)),
                self._m_bytes.labels(endpoint=endpoint),
                self._m_seconds.labels(endpoint=endpoint),
            )
        fast[0].inc()
        fast[1].inc(len(response.body))
        fast[2].observe(max(0.0, self.clock.now() - start))
        return response

    # ------------------------------------------------------------------
    # endpoint handlers

    def _handle_root(self, path: str, query, headers) -> Response:
        head = self.store.head_id()
        return self._rendered(("root", head), lambda: self._json(200, {
            "service": "repro-publish",
            "endpoints": [
                "/v1/snapshots", "/v1/snapshots/<id>",
                "/v1/snapshots/<id>/<artifact>", "/v1/latest",
                "/v1/latest/<artifact>", "/v1/delta/<from>/<to>",
                "/v1/query?prefix=&protocol=&asn=", "/metrics",
            ],
            "head": head,
        }))

    def _handle_metrics(self, path: str, query, headers) -> Response:
        body = to_prometheus_text(self.metrics).encode("utf-8")
        return Response(
            200, {"Content-Type": "text/plain; version=0.0.4"}, body
        )

    def _handle_snapshots(self, path: str, query, headers) -> Response:
        # keyed by (head, count): commits always bump the count, and
        # reordering commits of older days still move HEAD's tiebreak
        key = ("snapshots", self.store.head_id(), self.store.manifest_count())
        return self._rendered(key, self._build_snapshots)

    def _build_snapshots(self) -> Response:
        listing = [
            {
                "snapshot_id": manifest.snapshot_id,
                "scan_day": manifest.scan_day,
                "parent": manifest.parent,
                "artifacts": sorted(manifest.artifacts),
            }
            for manifest in self.store.manifests()
        ]
        return self._json(200, {"snapshots": listing, "head": self.store.head_id()})

    def _handle_latest(self, path: str, query, headers) -> Response:
        head = self.store.head_id()
        if head is None:
            return self._error(404, "the store has no snapshots yet")
        return self._manifest_response(head)

    def _handle_snapshot(self, path: str, query, headers) -> Response:
        snapshot_id = path.strip("/").split("/")[2]
        return self._manifest_response(snapshot_id)

    def _manifest_response(self, snapshot_id: str) -> Response:
        return self._rendered(
            ("manifest", snapshot_id),
            lambda: self._json(200, self.store.manifest(snapshot_id).to_dict()),
        )

    def _handle_artifact(self, path: str, query, headers) -> Response:
        _v1, _snapshots, snapshot_id, name = path.strip("/").split("/")
        return self._artifact_response(snapshot_id, name, headers)

    def _handle_latest_artifact(self, path: str, query, headers) -> Response:
        head = self.store.head_id()
        if head is None:
            return self._error(404, "the store has no snapshots yet")
        name = path.strip("/").split("/")[2]
        return self._artifact_response(head, name, headers)

    def _artifact_response(
        self, snapshot_id: str, name: str, headers: Mapping[str, str]
    ) -> Response:
        manifest = self.store.manifest(snapshot_id)
        digest = manifest.digest_of(name)
        etag = f'"{digest}"'
        response_headers = {
            "Content-Type": "text/plain; charset=utf-8",
            "ETag": etag,
            "X-Snapshot-Id": manifest.snapshot_id,
            "Cache-Control": "no-cache",
        }
        if _etag_matches(etag, headers.get("if-none-match", "")):
            # the blob's ETag is known from the manifest alone; let
            # ``_finalize`` (same matcher) build the 304 without ever
            # touching blob bytes
            return Response(200, response_headers, b"")
        loader = store_loader(self.store, digest)
        blob = (
            self.blob_cache.get(digest, loader)
            if self.blob_cache is not None else loader()
        )
        return Response(
            200,
            response_headers,
            blob.raw,
            gzip_body=blob.gz,
            raw_path=blob.raw_path,
            gzip_path=blob.gz_path,
        )

    def _handle_delta(self, path: str, query, headers) -> Response:
        _v1, _delta, from_id, to_id = path.strip("/").split("/")
        return self._rendered(
            ("delta", from_id, to_id),
            lambda: self._build_delta(from_id, to_id),
        )

    def _build_delta(self, from_id: str, to_id: str) -> Response:
        delta = compute_delta(self.store, from_id, to_id)
        body = delta_to_json(delta).encode("utf-8")
        return Response(200, {
            "Content-Type": "application/json",
            "ETag": f'"{hashlib.sha256(body).hexdigest()}"',
            "Cache-Control": "no-cache",
        }, body)

    def _handle_query(self, path: str, query, headers) -> Response:
        prefix = None
        if query.get("prefix"):
            try:
                prefix = IPv6Prefix.from_string(query["prefix"][0])
            except AddressError as error:
                raise ValueError(f"bad prefix: {error}") from None
        protocol = query["protocol"][0] if query.get("protocol") else None
        asn = None
        if query.get("asn"):
            try:
                asn = int(query["asn"][0])
            except ValueError:
                raise ValueError(f"bad asn: {query['asn'][0]!r}") from None
        key = (
            "query", self.store.head_id(),
            str(prefix) if prefix is not None else None, protocol, asn,
        )
        return self._rendered(
            key, lambda: self._build_query(prefix, protocol, asn)
        )

    def _build_query(self, prefix, protocol, asn) -> Response:
        index = self._current_index()
        addresses = index.query(prefix=prefix, protocol=protocol, asn=asn)
        truncated = len(addresses) > QUERY_LIMIT
        return self._json(200, {
            "snapshot_id": index.snapshot_id,
            "scan_day": index.scan_day,
            "count": len(addresses),
            "truncated": truncated,
            "addresses": [
                format_ipv6(address) for address in addresses[:QUERY_LIMIT]
            ],
        })

    def _current_index(self) -> QueryIndex:
        head = self.store.head_id()
        if head is None:
            raise PublishError("the store has no snapshots yet")
        with self._index_lock:
            if self._index is None or self._index.snapshot_id != head:
                self._index = QueryIndex.from_store(
                    self.store, head, rib=self._rib
                )
            return self._index

    # ------------------------------------------------------------------

    def _rendered(self, key: tuple, build) -> Response:
        """Build-once cache for immutable derived documents.

        Manifests, deltas and query results are pure functions of
        immutable inputs (a snapshot id, a snapshot pair, the head id),
        so their JSON — and its gzip encoding — is computed on first
        request and replayed afterwards.  Returns a fresh
        :class:`Response` each call because ``_finalize`` mutates its
        argument.
        """
        with self._render_lock:
            cached = self._render_cache.get(key)
            if cached is not None:
                self._render_cache.move_to_end(key)
        if cached is None:
            cached = build()
            if cached.status != 200:
                return cached
            if len(cached.body) >= GZIP_THRESHOLD:
                self._m_compress.inc()
                cached.gzip_body = compress_blob(cached.body)
            with self._render_lock:
                self._render_cache[key] = cached
                while len(self._render_cache) > RENDER_CACHE_ENTRIES:
                    self._render_cache.popitem(last=False)
        return Response(
            cached.status, dict(cached.headers), cached.body,
            gzip_body=cached.gzip_body,
        )

    def _json(self, status: int, document) -> Response:
        body = (json.dumps(document, indent=2, sort_keys=True) + "\n").encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if status == 200:
            headers["ETag"] = f'"{hashlib.sha256(body).hexdigest()}"'
            headers["Cache-Control"] = "no-cache"
        return Response(status, headers, body)

    def _error(self, status: int, message: str) -> Response:
        return self._json(status, {"error": message, "status": status})


def _lower_keys(headers: Mapping[str, str]) -> Dict[str, str]:
    return {key.lower(): value for key, value in headers.items()}


def _etag_matches(etag: str, if_none_match: str) -> bool:
    """RFC 7232 ``If-None-Match`` evaluation against one strong ETag.

    Shared by ``_finalize`` and the artifact fast path so "skip the
    blob" and "send the 304" can never disagree.
    """
    if not if_none_match:
        return False
    if if_none_match.strip() == "*":
        return True
    return etag in [token.strip() for token in if_none_match.split(",")]
