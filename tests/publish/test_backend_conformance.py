"""Differential conformance: the transport adds nothing but ``Date``.

A bare :meth:`PublishApp.handle` is the reference.  This suite replays
one request corpus (200s, 304s, gzip negotiation, deltas, queries,
deterministic 429s, malformed paths, HEAD, 405s) over real sockets and
through a fresh bare app, and asserts byte identity of every status,
lowercased header and body, excluding only ``Date``, which the
transport owns.

Two servers are checked:

* the asyncio front end in a thread, over an app with
  ``FakeClock(auto_advance=...)``.  The corpus is replayed sequentially
  on one keep-alive connection, so the served app and the reference app
  observe the identical timestamp sequence and the token bucket yields
  the identical 429 pattern, including ``Retry-After`` values;
* ``repro-cli serve --workers 2``, against a reference app with the
  CLI's default rate and burst.  Its workers run on the wall clock with
  a token bucket each, so its corpus leaves out the hammer block.
"""

import http.client
import os

import pytest

from repro.cli import build_parser
from repro.obs.clock import FakeClock
from repro.obs.metrics import MetricsRegistry
from repro.publish import aserve
from repro.publish.server import PublishApp
from repro.publish.store import SnapshotStore
from tests.publish.conftest import cli_server

#: The header the transport owns: it moves with the wall clock.
TRANSPORT_HEADERS = frozenset({"date"})

#: Token bucket sizing: small enough that the shared "hammer" id runs
#: dry mid-corpus, refilling so slowly (vs the FakeClock steps) that
#: the 429 pattern is exact.
RATE, BURST = 2.0, 6.0


def build_corpus(store, hammer=True):
    """The replayed (method, target, headers) sequence.

    Every request carries its own ``X-Client-Id`` so rate limiting
    never bleeds between corpus entries; the trailing hammer block
    shares one id to drain its bucket deterministically dry.
    """
    ids = store.snapshot_ids()
    head = ids[-1]
    etag = f'"{store.manifest(head).digest_of("responsive")}"'
    corpus = [
        ("GET", "/", {}),
        ("GET", "/v1/snapshots", {}),
        ("GET", f"/v1/snapshots/{head}", {}),
        ("GET", f"/v1/snapshots/{head}/responsive", {}),
        ("GET", f"/v1/snapshots/{head}/responsive",
         {"Accept-Encoding": "gzip"}),
        ("GET", "/v1/latest", {}),
        ("GET", "/v1/latest/responsive", {"If-None-Match": etag}),
        ("GET", "/v1/latest/responsive", {"If-None-Match": '"stale"'}),
        ("GET", f"/v1/delta/{ids[0]}/{ids[1]}", {}),
        ("GET", f"/v1/delta/{ids[0]}/{ids[1]}",
         {"Accept-Encoding": "gzip"}),
        ("GET", "/v1/query?prefix=2001:db8::/32&protocol=icmp", {}),
        ("GET", "/v1/query?prefix=not-a-prefix", {}),          # 400
        ("GET", "/v1/no-such-endpoint", {}),                   # 404 route
        ("GET", "/v1/snapshots/feedfeedfeed", {}),             # 404 store
        ("GET", "/v1/delta/zzzz/yyyy", {}),                    # 404 delta
        ("POST", "/v1/snapshots", {}),                         # 405
        ("HEAD", f"/v1/snapshots/{head}/responsive", {}),
    ]
    corpus = [
        (method, target, {**headers, "X-Client-Id": f"corpus-{index}"})
        for index, (method, target, headers) in enumerate(corpus)
    ]
    if hammer:
        corpus += [
            ("GET", "/v1/latest", {"X-Client-Id": "hammer"})
        ] * (int(BURST) + 4)
    return corpus


def replay(address, corpus):
    """Observed (status, headers-sans-Date, body) per corpus entry."""
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=10)
    observed = []
    try:
        for method, target, headers in corpus:
            conn.request(method, target, headers=headers)
            response = conn.getresponse()
            body = response.read()
            kept = {
                name.lower(): value
                for name, value in response.getheaders()
                if name.lower() not in TRANSPORT_HEADERS
            }
            observed.append((response.status, kept, body))
    finally:
        conn.close()
    return observed


def reference(app, corpus):
    """The bare app's (status, lowercased headers, body) per entry."""
    observed = []
    for method, target, headers in corpus:
        response = app.handle(method, target, headers, client="127.0.0.1")
        lowered = {name.lower(): value
                   for name, value in response.headers.items()}
        observed.append((response.status, lowered, response.body))
    return observed


def assert_identical(corpus, served, expected):
    assert len(served) == len(expected) == len(corpus)
    for index, (method, target, _headers) in enumerate(corpus):
        s_status, s_headers, s_body = served[index]
        e_status, e_headers, e_body = expected[index]
        where = f"corpus[{index}] {method} {target}"
        assert s_status == e_status, (
            f"{where}: status {s_status} (served) != {e_status} (app)")
        assert s_headers == e_headers, (
            f"{where}: headers diverge: {s_headers} != {e_headers}")
        assert s_body == e_body, (
            f"{where}: bodies diverge ({len(s_body)} vs {len(e_body)} "
            f"bytes)")


def fresh_app(store_root):
    return PublishApp(
        SnapshotStore(store_root), metrics=MetricsRegistry(),
        clock=FakeClock(auto_advance=0.001), rate=RATE, burst=BURST,
    )


@pytest.fixture()
def asyncio_address(populated_store):
    handle = aserve.start_in_thread(fresh_app(populated_store.root))
    yield handle.address
    handle.stop()


def test_bridges_serve_identical_bytes(populated_store, asyncio_address):
    corpus = build_corpus(populated_store)
    assert_identical(
        corpus, replay(asyncio_address, corpus),
        reference(fresh_app(populated_store.root), corpus))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")
def test_workers_serve_identical_bytes(populated_store, tmp_path):
    """``--workers 2``: every connection, whichever worker accepts it,
    answers what a bare app with the CLI's defaults answers."""
    root = populated_store.root
    defaults = build_parser().parse_args(["serve", "--store", root])
    expected_app = aserve.default_app_factory(
        root, rate=defaults.rate, burst=defaults.burst)()
    corpus = build_corpus(populated_store, hammer=False)
    expected = reference(expected_app, corpus)
    with cli_server(root, tmp_path / "port", "--workers", "2") as port:
        for _ in range(4):  # fresh connections, spread by accept
            assert_identical(
                corpus, replay(("127.0.0.1", port), corpus), expected)


def test_corpus_exercises_every_contract_path(populated_store):
    """The identity assertion is only as strong as the corpus."""
    corpus = build_corpus(populated_store)
    observed = reference(fresh_app(populated_store.root), corpus)
    statuses = {status for status, _headers, _body in observed}
    assert {200, 304, 400, 404, 405, 429} <= statuses
    encodings = {
        headers.get("content-encoding")
        for _status, headers, _body in observed
    }
    assert "gzip" in encodings
    retry_after = [
        headers["retry-after"]
        for status, headers, _body in observed if status == 429
    ]
    assert retry_after, "the hammer block never tripped the rate limit"
