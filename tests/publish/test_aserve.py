"""Asyncio front-end transport behavior: the things conformance can't see.

The differential suite proves the asyncio front end serves the same
bytes as a bare ``PublishApp.handle``; these tests cover what is
*specific* to the transport tier — keep-alive connection accounting,
close reasons, request-body draining, protocol-error handling, the
``os.sendfile`` path, and serving from several worker processes.
"""

import os
import socket
import time

import pytest

from repro.obs.clock import FakeClock
from repro.obs.metrics import MetricsRegistry
from repro.publish import aserve
from repro.publish.server import PublishApp
from repro.publish.store import SnapshotStore
from tests.publish.conftest import cli_server


def fresh_app(store, **kwargs):
    kwargs.setdefault("rate", 1000.0)
    kwargs.setdefault("burst", 1000.0)
    return PublishApp(
        SnapshotStore(store.root), metrics=MetricsRegistry(),
        clock=FakeClock(auto_advance=0.001), **kwargs,
    )


@pytest.fixture()
def served(populated_store):
    app = fresh_app(populated_store)
    handle = aserve.start_in_thread(app)
    yield app, handle.address
    handle.stop()


# ---------------------------------------------------------------------------
# raw-socket helpers


class Conn:
    """A raw client connection with a parse buffer, so pipelined
    responses sharing one TCP segment are never dropped."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)
        self.sock.settimeout(10)
        self.buffer = b""

    def sendall(self, data):
        self.sock.sendall(data)

    def recv(self, size=65536):
        return self.sock.recv(size)

    def close(self):
        self.sock.close()

    def read_response(self, head=False):
        """One (status, headers, body), honoring Content-Length.

        ``head=True`` reads a HEAD response: Content-Length describes
        the body the server did *not* send.
        """
        while b"\r\n\r\n" not in self.buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError(
                    f"peer closed mid-head: {self.buffer!r}")
            self.buffer += chunk
        raw_head, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        lines = raw_head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body_len = 0 if head else int(headers.get("content-length", "0"))
        while len(self.buffer) < body_len:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("peer closed mid-body")
            self.buffer += chunk
        body, self.buffer = self.buffer[:body_len], self.buffer[body_len:]
        return status, headers, body


def open_conn(address):
    return Conn(address)


def read_response(conn):
    return conn.read_response()


def request_bytes(method, target, headers=None):
    lines = [f"{method} {target} HTTP/1.1", "Host: t"]
    lines += [f"{name}: {value}" for name, value in (headers or {}).items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def counter(app, name):
    return app.metrics.counter_total(name)


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


# ---------------------------------------------------------------------------


class TestKeepAliveAccounting:
    def test_depth_and_eof_close_reason(self, served):
        app, address = served
        sock = open_conn(address)
        try:
            for _ in range(3):
                sock.sendall(request_bytes("GET", "/v1/latest"))
                status, _headers, _body = read_response(sock)
                assert status == 200
        finally:
            sock.close()
        assert wait_for(
            lambda: counter(app, "repro_serve_conn_closed_total") == 1)
        assert counter(app, "repro_serve_conn_opened_total") == 1
        closed = app.metrics.get("repro_serve_conn_closed_total")
        assert closed.labels(reason="eof").value == 1
        depth = app.metrics.get("repro_serve_conn_requests")
        assert depth.labels().sum == 3.0

    def test_connection_close_header_is_honored(self, served):
        app, address = served
        sock = open_conn(address)
        try:
            sock.sendall(request_bytes(
                "GET", "/v1/latest", {"Connection": "close"}))
            status, _headers, _body = read_response(sock)
            assert status == 200
            assert sock.recv(1) == b""  # server closed first
        finally:
            sock.close()
        assert wait_for(
            lambda: counter(app, "repro_serve_conn_closed_total") == 1)
        closed = app.metrics.get("repro_serve_conn_closed_total")
        assert closed.labels(reason="close-header").value == 1


class TestProtocolErrors:
    def test_malformed_request_line_gets_400_and_close(self, served):
        app, address = served
        sock = open_conn(address)
        try:
            sock.sendall(b"COMPLETE NONSENSE\r\n\r\n")
            status, headers, _body = read_response(sock)
            assert status == 400
            assert headers.get("connection") == "close"
            assert sock.recv(1) == b""
        finally:
            sock.close()
        assert wait_for(
            lambda: counter(app, "repro_serve_conn_closed_total") == 1)
        closed = app.metrics.get("repro_serve_conn_closed_total")
        assert closed.labels(reason="overflow").value == 1

    def test_oversized_header_block_gets_400(self, served):
        _app, address = served
        sock = open_conn(address)
        try:
            # header bytes beyond MAX_HEADER_BYTES with no terminator
            sock.sendall(b"GET / HTTP/1.1\r\nX-Junk: " +
                         b"a" * (aserve.MAX_HEADER_BYTES + 10))
            status, _headers, _body = read_response(sock)
            assert status == 400
        finally:
            sock.close()

    def test_unreasonable_content_length_gets_400(self, served):
        _app, address = served
        sock = open_conn(address)
        try:
            sock.sendall(request_bytes(
                "POST", "/v1/latest",
                {"Content-Length": str(10 * 1024 * 1024)}))
            status, _headers, _body = read_response(sock)
            assert status == 400
        finally:
            sock.close()


class TestRequestBodies:
    def test_post_body_is_drained_before_next_request(self, served):
        """A rejected POST's body must not poison the keep-alive stream."""
        _app, address = served
        sock = open_conn(address)
        try:
            sock.sendall(request_bytes(
                "POST", "/v1/latest", {"Content-Length": "11"}))
            sock.sendall(b"ignore me\r\n")
            status, _headers, _body = read_response(sock)
            assert status == 405
            sock.sendall(request_bytes("GET", "/v1/latest"))
            status, _headers, _body = read_response(sock)
            assert status == 200
        finally:
            sock.close()

    def test_pipelined_requests_answer_in_order(self, served):
        _app, address = served
        sock = open_conn(address)
        try:
            sock.sendall(
                request_bytes("GET", "/v1/latest") +
                request_bytes("GET", "/v1/snapshots") +
                request_bytes("GET", "/v1/nope"))
            statuses = [read_response(sock)[0] for _ in range(3)]
            assert statuses == [200, 200, 404]
        finally:
            sock.close()


class TestSendfile:
    def test_large_blob_goes_through_sendfile(self, populated_store):
        app = fresh_app(populated_store)
        handle = aserve.start_in_thread(app, sendfile_min=1)
        try:
            head = app.store.head_id()
            digest = app.store.manifest(head).digest_of("responsive")
            sock = open_conn(handle.address)
            try:
                sock.sendall(request_bytes(
                    "GET", f"/v1/snapshots/{head}/responsive"))
                status, headers, body = read_response(sock)
                assert status == 200
                assert body == app.store.read_blob_bytes(digest)
                # the next keep-alive request still parses after the
                # sendfile task hands the transport back
                sock.sendall(request_bytes("GET", "/v1/latest"))
                assert read_response(sock)[0] == 200
            finally:
                sock.close()
            assert counter(app, "repro_serve_sendfile_total") >= 1
        finally:
            handle.stop()

    def test_head_request_never_pays_for_the_body(self, served):
        app, address = served
        sock = open_conn(address)
        try:
            head = app.store.head_id()
            sock.sendall(request_bytes(
                "HEAD", f"/v1/snapshots/{head}/responsive"))
            status, headers, body = sock.read_response(head=True)
            assert status == 200
            assert body == b""
            assert int(headers["content-length"]) > 0
        finally:
            sock.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")
def test_prefork_smoke(populated_store, tmp_path):
    """Two workers share one socket via the CLI; clean SIGTERM exit."""
    with cli_server(populated_store.root, tmp_path / "port",
                    "--workers", "2") as port:
        for _ in range(4):  # a few connections, load-balanced by accept
            sock = open_conn(("127.0.0.1", port))
            try:
                sock.sendall(request_bytes("GET", "/v1/latest"))
                assert read_response(sock)[0] == 200
            finally:
                sock.close()
