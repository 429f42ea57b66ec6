"""Serving layer: port-free handler tests for every endpoint.

All tests drive :class:`PublishApp.handle` directly — no sockets — with
a :class:`FakeClock`, so ETag/304 behavior, gzip negotiation, rate
limiting (including exact ``Retry-After`` values) and the metric
families are fully deterministic.
"""

import gzip
import json

import pytest

from repro.obs.clock import FakeClock
from repro.obs.export import parse_prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.publish import aserve
from repro.publish.server import PublishApp
from tests.publish.conftest import address_artifact, day_addresses


@pytest.fixture()
def app(populated_store):
    return PublishApp(
        populated_store,
        metrics=MetricsRegistry(),
        clock=FakeClock(auto_advance=0.001),
        rate=1000.0,
        burst=1000.0,
    )


def get_json(app, target, headers=None):
    response = app.handle("GET", target, headers or {})
    return response, json.loads(response.body)


class TestEndpoints:
    def test_root_lists_endpoints(self, app):
        response, doc = get_json(app, "/")
        assert response.status == 200
        assert "/v1/snapshots" in doc["endpoints"]
        assert doc["head"] == app.store.head_id()

    def test_snapshots_listing(self, app):
        response, doc = get_json(app, "/v1/snapshots")
        assert response.status == 200
        assert [s["scan_day"] for s in doc["snapshots"]] == [0, 2, 4, 6, 8]
        assert doc["snapshots"][0]["parent"] is None
        assert doc["head"] == doc["snapshots"][-1]["snapshot_id"]

    def test_single_manifest(self, app):
        head = app.store.head_id()
        response, doc = get_json(app, f"/v1/snapshots/{head}")
        assert response.status == 200
        assert doc["snapshot_id"] == head
        assert "responsive" in doc["artifacts"]

    def test_latest_manifest(self, app):
        response, doc = get_json(app, "/v1/latest")
        assert response.status == 200
        assert doc["snapshot_id"] == app.store.head_id()

    def test_full_artifact_fetch(self, app):
        head = app.store.head_id()
        response = app.handle("GET", f"/v1/snapshots/{head}/responsive", {})
        assert response.status == 200
        assert response.body.decode() == address_artifact(day_addresses(8))
        digest = app.store.manifest(head).digest_of("responsive")
        assert response.headers["ETag"] == f'"{digest}"'
        assert response.headers["X-Snapshot-Id"] == head

    def test_latest_artifact_alias(self, app):
        head = app.store.head_id()
        direct = app.handle("GET", f"/v1/snapshots/{head}/responsive", {})
        latest = app.handle("GET", "/v1/latest/responsive", {})
        assert latest.body == direct.body
        assert latest.headers["ETag"] == direct.headers["ETag"]

    def test_delta_endpoint(self, app):
        ids = app.store.snapshot_ids()
        response, doc = get_json(app, f"/v1/delta/{ids[0]}/{ids[1]}")
        assert response.status == 200
        assert doc["from"] == ids[0] and doc["to"] == ids[1]
        assert "responsive" in doc["artifacts"]

    def test_query_endpoint(self, app):
        response, doc = get_json(
            app, "/v1/query?prefix=2001:db8::/32&protocol=icmp&asn=64501"
        )
        assert response.status == 200
        assert doc["count"] == len(
            [a for a in day_addresses(8) if a % 3 == 1]
        )
        assert not doc["truncated"]
        assert doc["snapshot_id"] == app.store.head_id()

    def test_unknown_endpoint_404(self, app):
        response, doc = get_json(app, "/v2/nope")
        assert response.status == 404
        assert "error" in doc

    def test_unknown_snapshot_404(self, app):
        response, _doc = get_json(app, "/v1/snapshots/" + "0" * 64)
        assert response.status == 404

    def test_bad_query_prefix_400(self, app):
        response, doc = get_json(app, "/v1/query?prefix=not-a-prefix")
        assert response.status == 400
        assert "bad prefix" in doc["error"]

    def test_post_rejected_405(self, app):
        response = app.handle("POST", "/v1/snapshots", {})
        assert response.status == 405
        assert response.headers["Allow"] == "GET, HEAD"

    def test_head_request_has_no_body(self, app):
        response = app.handle("HEAD", "/v1/latest/responsive", {})
        assert response.status == 200
        assert response.body == b""
        assert "ETag" in response.headers


class TestConditionalAndGzip:
    def test_if_none_match_yields_304(self, app):
        first = app.handle("GET", "/v1/latest/responsive", {})
        etag = first.headers["ETag"]
        second = app.handle(
            "GET", "/v1/latest/responsive", {"If-None-Match": etag}
        )
        assert second.status == 304
        assert second.body == b""
        assert second.headers["ETag"] == etag

    def test_star_and_list_etag_forms(self, app):
        first = app.handle("GET", "/v1/latest/responsive", {})
        etag = first.headers["ETag"]
        assert app.handle(
            "GET", "/v1/latest/responsive", {"If-None-Match": "*"}
        ).status == 304
        assert app.handle(
            "GET", "/v1/latest/responsive",
            {"If-None-Match": f'"bogus", {etag}'},
        ).status == 304

    def test_stale_etag_gets_full_body(self, app):
        response = app.handle(
            "GET", "/v1/latest/responsive", {"If-None-Match": '"stale"'}
        )
        assert response.status == 200
        assert response.body

    def test_gzip_negotiated(self, app):
        plain = app.handle("GET", "/v1/latest/responsive", {})
        packed = app.handle(
            "GET", "/v1/latest/responsive", {"Accept-Encoding": "gzip"}
        )
        assert packed.headers["Content-Encoding"] == "gzip"
        assert len(packed.body) < len(plain.body)
        assert gzip.decompress(packed.body) == plain.body

    def test_gzip_is_deterministic(self, app):
        a = app.handle("GET", "/v1/latest/responsive", {"Accept-Encoding": "gzip"})
        b = app.handle("GET", "/v1/latest/responsive", {"Accept-Encoding": "gzip"})
        assert a.body == b.body

    def test_tiny_bodies_stay_plain(self, populated_store):
        app = PublishApp(populated_store, clock=FakeClock())
        head = populated_store.snapshot_ids()[0]
        response = app.handle(
            "GET",
            f"/v1/snapshots/{head}/aliased",
            {"Accept-Encoding": "gzip"},
        )
        assert response.status == 200
        assert "Content-Encoding" not in response.headers

    def test_content_length_matches_body(self, app):
        response = app.handle(
            "GET", "/v1/latest/responsive", {"Accept-Encoding": "gzip"}
        )
        assert int(response.headers["Content-Length"]) == len(response.body)


class TestRateLimit:
    def test_429_with_retry_after(self, populated_store):
        clock = FakeClock()
        app = PublishApp(
            populated_store, clock=clock, rate=1.0, burst=2.0,
            metrics=MetricsRegistry(),
        )
        assert app.handle("GET", "/v1/latest", {}, client="c").status == 200
        assert app.handle("GET", "/v1/latest", {}, client="c").status == 200
        refused = app.handle("GET", "/v1/latest", {}, client="c")
        assert refused.status == 429
        assert refused.headers["Retry-After"] == "1"
        assert json.loads(refused.body)["error"] == "rate limit exceeded"
        assert app.metrics.counter_total(
            "repro_serve_ratelimit_drops_total") == 1
        clock.advance(1.0)
        assert app.handle("GET", "/v1/latest", {}, client="c").status == 200

    def test_clients_limited_independently(self, populated_store):
        app = PublishApp(populated_store, clock=FakeClock(), rate=1.0, burst=1.0)
        assert app.handle("GET", "/v1/latest", {}, client="a").status == 200
        assert app.handle("GET", "/v1/latest", {}, client="a").status == 429
        assert app.handle("GET", "/v1/latest", {}, client="b").status == 200

    def test_metrics_endpoint_not_rate_limited(self, populated_store):
        app = PublishApp(populated_store, clock=FakeClock(), rate=1.0, burst=1.0)
        app.handle("GET", "/v1/latest", {}, client="c")
        for _ in range(5):
            assert app.handle("GET", "/metrics", {}, client="c").status == 200


class TestMetrics:
    def test_exposition_parses_strictly(self, app):
        app.handle("GET", "/v1/latest/responsive", {})
        app.handle(
            "GET", "/v1/latest/responsive",
            {"If-None-Match": app.handle(
                "GET", "/v1/latest/responsive", {}).headers["ETag"]},
        )
        response = app.handle("GET", "/metrics", {})
        families = parse_prometheus_text(response.body.decode())
        for name in (
            "repro_serve_requests_total",
            "repro_serve_bytes_sent_total",
            "repro_serve_cache_hits_total",
            "repro_serve_ratelimit_drops_total",
            "repro_serve_request_seconds",
        ):
            assert name in families, name

    def test_request_and_cache_counters(self, app):
        response = app.handle("GET", "/v1/latest/responsive", {})
        etag = response.headers["ETag"]
        app.handle("GET", "/v1/latest/responsive", {"If-None-Match": etag})
        app.handle("GET", "/v2/bogus", {})
        requests = app.metrics.get("repro_serve_requests_total")
        assert requests.labels(endpoint="artifact", status="200").value == 1
        assert requests.labels(endpoint="artifact", status="304").value == 1
        assert requests.labels(endpoint="unknown", status="404").value == 1
        cache = app.metrics.get("repro_serve_cache_hits_total")
        assert cache.labels(endpoint="artifact").value == 1

    def test_bytes_counter_tracks_wire_bytes(self, app):
        response = app.handle("GET", "/v1/latest/responsive", {})
        sent = app.metrics.get("repro_serve_bytes_sent_total")
        assert sent.labels(endpoint="artifact").value == len(response.body)


class TestRealServer:
    def test_over_a_real_socket(self, app):
        import urllib.error
        import urllib.request

        handle = aserve.start_in_thread(app)
        port = handle.port
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/latest/responsive"
            ) as response:
                body = response.read()
                etag = response.headers["ETag"]
            assert body.decode() == address_artifact(day_addresses(8))
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/latest/responsive",
                headers={"If-None-Match": etag},
            )
            try:
                with urllib.request.urlopen(request) as response:
                    status = response.status
            except urllib.error.HTTPError as error:  # 304 raises here
                status = error.code
            assert status == 304
        finally:
            handle.stop()


class TestZeroCompressionServing:
    """The serving hot path never gzips: immutable blobs carry their
    commit-time sidecar, derived documents compress once on the first
    render — a repeated fetch performs *zero* compression calls."""

    def compressions(self, app):
        return app.metrics.counter_total("repro_serve_gzip_compress_total")

    def test_repeated_artifact_fetch_never_compresses(self, app):
        head = app.store.head_id()
        target = f"/v1/snapshots/{head}/responsive"
        bodies = set()
        for _ in range(5):
            response = app.handle(
                "GET", target, {"Accept-Encoding": "gzip"})
            assert response.status == 200
            assert response.headers["Content-Encoding"] == "gzip"
            bodies.add(response.body)
        assert len(bodies) == 1
        assert gzip.decompress(bodies.pop()).decode() == (
            address_artifact(day_addresses(8)))
        assert self.compressions(app) == 0

    def test_derived_documents_compress_exactly_once(self, app):
        first, second = app.store.snapshot_ids()[:2]
        target = f"/v1/delta/{first}/{second}"
        bodies = set()
        for _ in range(5):
            response = app.handle(
                "GET", target, {"Accept-Encoding": "gzip"})
            assert response.status == 200
            assert response.headers["Content-Encoding"] == "gzip"
            bodies.add(response.body)
        assert len(bodies) == 1
        # one render-cache fill, then replay: the counter must not move
        assert self.compressions(app) == 1

    def test_conditional_refetch_skips_blob_and_compression(self, app):
        head = app.store.head_id()
        target = f"/v1/snapshots/{head}/responsive"
        etag = app.handle("GET", target, {}).headers["ETag"]
        for _ in range(3):
            response = app.handle("GET", target, {
                "Accept-Encoding": "gzip", "If-None-Match": etag})
            assert response.status == 304
            assert response.body == b""
        assert self.compressions(app) == 0
