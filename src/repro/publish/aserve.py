"""Asyncio HTTP/1.1 front end for :class:`~repro.publish.server.PublishApp`.

This is the only serving transport.  Every status, header and body byte
comes from ``PublishApp.handle``; the differential conformance suite
replays one corpus through this front end and through a bare
``PublishApp.handle`` and asserts byte identity (``Date`` aside).

What the front end adds is purely transport:

* **keep-alive** — one :class:`asyncio.Protocol` per connection, many
  requests per connection; requests are parsed straight out of
  ``data_received`` and the (synchronous) app core is called inline, so
  an in-memory response never allocates a future, task or coroutine —
  an idle connection costs one parser object, not a thread;
* **zero-copy bodies** — when the final body bytes live verbatim in a
  store file (raw blob or its commit-time ``.gz`` sidecar,
  ``Response.body_path``), bodies at least ``sendfile_min`` bytes are
  handed to the kernel via ``os.sendfile`` (``loop.sendfile``); smaller
  or in-memory bodies are written as a single buffer handoff;
* **connection metrics** — ``repro_serve_conn_opened_total``,
  ``…_conn_closed_total`` (by reason), a ``…_conn_active`` gauge, a
  ``…_conn_requests`` per-connection histogram and
  ``repro_serve_sendfile_total``;
* **workers** — :func:`run` binds one listening socket and serves it
  from one event loop in the current process, or from N forked
  children, each with its own loop and its own :class:`PublishApp`, so
  multi-core hosts scale past a single loop.

Run it from the CLI (``repro-cli serve [--workers N]``) or through
:func:`run`, and from tests via :func:`start_in_thread`.
"""

from __future__ import annotations

import asyncio
import email.utils
import http.client
import os
import signal
import socket
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.publish.cache import DEFAULT_CACHE_BYTES
from repro.publish.server import PublishApp, Response
from repro.publish.store import SnapshotStore

#: Smallest body (bytes) routed through ``os.sendfile`` instead of a
#: plain buffer write.  Below this the syscall round-trip costs more
#: than the copy; hot blobs are usually in the cache (memory) anyway.
SENDFILE_MIN = 64 * 1024

#: Listen backlog: the kernel default refuses connection bursts.
BACKLOG = 1024

#: Upper bound on one request's header block (request line + headers).
MAX_HEADER_BYTES = 32 * 1024

_CONN_REQUEST_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0,
                         250.0, 500.0, 1000.0)


class _HttpError(Exception):
    """A transport-level parse failure (answered 400, connection closed)."""


class AsyncPublishServer:
    """One event loop serving a :class:`PublishApp` over HTTP/1.1."""

    def __init__(
        self, app: PublishApp, sendfile_min: int = SENDFILE_MIN
    ) -> None:
        self.app = app
        self.sendfile_min = sendfile_min
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self._closed_series: Dict[str, object] = {}
        metrics = app.metrics
        self._m_opened = metrics.counter(
            "repro_serve_conn_opened_total",
            "TCP connections accepted by the asyncio front end.",
            volatile=True)
        self._m_closed = metrics.counter(
            "repro_serve_conn_closed_total",
            "Connections closed, by reason (eof, close-header, error, "
            "overflow).",
            ("reason",), volatile=True)
        self._m_active = metrics.gauge(
            "repro_serve_conn_active",
            "Connections currently open on the asyncio front end.",
            volatile=True)
        self._m_conn_requests = metrics.histogram(
            "repro_serve_conn_requests",
            "Requests served per connection (keep-alive depth).",
            buckets=_CONN_REQUEST_BUCKETS, volatile=True)
        self._m_sendfile = metrics.counter(
            "repro_serve_sendfile_total",
            "Response bodies handed to the kernel via os.sendfile.",
            volatile=True)

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self, sock: socket.socket) -> None:
        """Start accepting connections on the listening ``sock``."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _HttpProtocol(self), sock=sock)
        self._stopping = asyncio.Event()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid after :meth:`start`)."""
        sockets = self._server.sockets
        return sockets[0].getsockname()[:2]

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`stop` is called (from any thread)."""
        await self._stopping.wait()
        await self.close()

    def stop(self) -> None:
        self._stopping.set()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # connection bookkeeping (called by the protocol)

    def _conn_opened(self) -> None:
        self._m_opened.inc()
        self._m_active.inc()

    def _conn_closed(self, reason: str, requests: int) -> None:
        self._m_active.dec()
        series = self._closed_series.get(reason)
        if series is None:
            series = self._closed_series[reason] = (
                self._m_closed.labels(reason=reason))
        series.inc()
        if requests:
            self._m_conn_requests.observe(float(requests))


class _HttpProtocol(asyncio.Protocol):
    """One keep-alive HTTP/1.1 connection, served from socket callbacks.

    The stream-reader machinery costs a future and a task wakeup per
    read; at tens of thousands of requests per second that machinery
    *is* the bottleneck.  This protocol parses requests straight out of
    ``data_received`` and calls the synchronous :class:`PublishApp`
    inline, so an in-memory response involves no coroutine, no task and
    no future — just a parse, the app call, and one ``transport.write``.
    Only ``os.sendfile`` bodies detour through a task (the kernel
    handoff is genuinely asynchronous); ``busy`` parks the parser until
    the handoff finishes so responses stay ordered.
    """

    def __init__(self, server: AsyncPublishServer) -> None:
        self.server = server
        self.app = server.app
        self.transport: Optional[asyncio.Transport] = None
        self.buffer = b""
        self.skip = 0          # request-body bytes still to drain
        self.requests = 0
        self.reason = "eof"
        self.busy = False      # a sendfile task owns the transport
        self.write_paused = False
        self.closing = False
        self.client = "unknown"

    # -- transport callbacks -------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        peer = transport.get_extra_info("peername")
        if peer:
            self.client = peer[0]
        self.server._conn_opened()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if exc is not None and self.reason == "eof":
            self.reason = "error"
        self.closing = True
        self.server._conn_closed(self.reason, self.requests)

    def pause_writing(self) -> None:
        self.write_paused = True

    def resume_writing(self) -> None:
        self.write_paused = False
        if not self.busy and not self.closing:
            self._process()

    def data_received(self, data: bytes) -> None:
        self.buffer = self.buffer + data if self.buffer else data
        if not self.busy and not self.write_paused:
            self._process()

    # -- request pump ---------------------------------------------------

    def _process(self) -> None:
        """Serve every complete request currently in the buffer.

        Stops early when the peer's receive window backs the write
        buffer up (``pause_writing``) — a pipelining client cannot make
        the server buffer unbounded response bytes.
        """
        while not self.closing and not self.write_paused:
            if self.skip:
                if len(self.buffer) <= self.skip:
                    self.skip -= len(self.buffer)
                    self.buffer = b""
                    return
                self.buffer = self.buffer[self.skip:]
                self.skip = 0
            end = self.buffer.find(b"\r\n\r\n")
            if end < 0:
                if len(self.buffer) > MAX_HEADER_BYTES:
                    self._abort()
                return
            block = self.buffer[:end]
            self.buffer = self.buffer[end + 4:]
            try:
                method, target, version, headers = _parse_head(block)
                self.skip = _body_length(headers)
            except _HttpError:
                self._abort()
                return
            self.requests += 1
            response = self.app.handle(
                method, target, headers, client=self.client, lowered=True)
            keep = _keep_alive(version, headers)
            if not self._write_response(method, response, keep):
                return  # a sendfile task finishes this response
            if not keep:
                self.reason = "close-header"
                self.transport.close()
                return

    def _write_response(
        self, method: str, response: Response, keep: bool
    ) -> bool:
        """Write the response; False when a sendfile task took over."""
        head = _serialize_head(response)
        body = response.body
        if method == "HEAD" or not body:
            self.transport.write(head)
            return True
        if (
            response.body_path is not None
            and len(body) >= self.server.sendfile_min
        ):
            self.transport.write(head)
            self.busy = True
            asyncio.get_running_loop().create_task(
                self._sendfile(response, keep))
            return False
        # one buffer handoff for header + body
        self.transport.write(head + body)
        return True

    async def _sendfile(self, response: Response, keep: bool) -> None:
        try:
            handle = open(response.body_path, "rb")
        except OSError:
            # the store file vanished under us; the bytes are still in
            # memory, so fall back to a plain buffer write
            self.transport.write(response.body)
        else:
            try:
                await asyncio.get_running_loop().sendfile(
                    self.transport, handle, fallback=True)
                self.server._m_sendfile.inc()
            except (ConnectionError, OSError, RuntimeError,
                    asyncio.CancelledError):
                self.reason = "error"
                self.transport.close()
                self.busy = False
                return
            finally:
                handle.close()
        self.busy = False
        if not keep:
            self.reason = "close-header"
            self.transport.close()
        elif not self.closing:
            self._process()

    def _abort(self) -> None:
        """Answer 400 to an unparseable request and close."""
        self.reason = "overflow"
        try:
            self.transport.write(
                b"HTTP/1.1 400 Bad Request\r\n"
                b"Content-Length: 0\r\nConnection: close\r\n\r\n")
        except (ConnectionError, OSError):  # pragma: no cover - racing close
            pass
        self.transport.close()


#: Decoded, lowercased header names, memoized: every request re-sends
#: the same handful of names, so the strip/lower/decode runs once per
#: distinct spelling instead of once per header line.  Bounded so a
#: peer minting unique names cannot grow the map without limit.
_HEADER_NAMES: Dict[bytes, str] = {}
_HEADER_NAME_LIMIT = 1024


def _parse_head(block: bytes) -> Tuple[str, str, str, Dict[str, str]]:
    """Parse a request head (no trailing CRLFCRLF); bytes in, str out."""
    lines = block.split(b"\r\n")
    try:
        raw_method, raw_target, raw_version = lines[0].split(b" ", 2)
    except ValueError:
        raise _HttpError("malformed request line") from None
    if not raw_version.startswith(b"HTTP/"):
        raise _HttpError(f"bad protocol version {raw_version!r}")
    headers: Dict[str, str] = {}
    names = _HEADER_NAMES
    for line in lines[1:]:
        if not line:
            continue
        raw_name, sep, value = line.partition(b":")
        if not sep:
            raise _HttpError(f"malformed header line {line!r}")
        name = names.get(raw_name)
        if name is None:
            name = raw_name.strip().lower().decode("latin-1")
            if len(names) < _HEADER_NAME_LIMIT:
                names[raw_name] = name
        headers[name] = value.strip().decode("latin-1")
    return (
        raw_method.decode("latin-1"),
        raw_target.decode("latin-1"),
        raw_version.decode("latin-1"),
        headers,
    )


def _body_length(headers: Dict[str, str]) -> int:
    """Bytes of request body to drain before the next request parses."""
    length = headers.get("content-length")
    if length is None:
        return 0
    try:
        pending = int(length)
    except ValueError:
        raise _HttpError(f"bad Content-Length {length!r}") from None
    if pending < 0 or pending > MAX_HEADER_BYTES:
        raise _HttpError(f"unsupported request body size {pending}")
    return pending


def _keep_alive(version: str, headers: Dict[str, str]) -> bool:
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.0":
        return "keep-alive" in connection
    return "close" not in connection


def _serialize_head(response: Response) -> bytes:
    status_line = _STATUS_LINES.get(response.status)
    if status_line is None:
        reason = http.client.responses.get(response.status, "")
        status_line = _STATUS_LINES[response.status] = (
            f"HTTP/1.1 {response.status} {reason}\r\n".encode("latin-1"))
    parts = [f"{name}: {value}\r\n" for name, value in
             response.headers.items()]
    parts.append("\r\n")
    return status_line + _http_date_line() + "".join(parts).encode("latin-1")


# ---------------------------------------------------------------------------
# cached Date header (one format per wall-clock second)

_DATE_CACHE: Tuple[int, bytes] = (-1, b"")

#: ``HTTP/1.1 <status> <reason>\r\n`` lines, interned on first use.
_STATUS_LINES: Dict[int, bytes] = {}


def _http_date_line() -> bytes:
    global _DATE_CACHE
    now = int(time.time())
    if _DATE_CACHE[0] != now:
        stamp = email.utils.formatdate(now, usegmt=True)
        _DATE_CACHE = (now, f"Date: {stamp}\r\n".encode("latin-1"))
    return _DATE_CACHE[1]


# ---------------------------------------------------------------------------
# running a server

def _bind(host: str = "127.0.0.1", port: int = 0) -> socket.socket:
    """The listening socket a server adopts (``port=0``: ephemeral)."""
    return socket.create_server((host, port), backlog=BACKLOG)


async def _serve(server: AsyncPublishServer, sock: socket.socket,
                 started: Optional[Callable[[], None]] = None) -> None:
    """Serve ``sock`` until ``server.stop()``; in a process's main thread
    SIGINT and SIGTERM call it too."""
    await server.start(sock)
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, server.stop)
        except (NotImplementedError, RuntimeError):
            break  # non-main thread or platform without signal support
    if started is not None:
        started()
    await server.serve_until_stopped()


def _serve_here(app: PublishApp, sock: socket.socket) -> int:
    try:
        asyncio.run(_serve(AsyncPublishServer(app), sock))
    except KeyboardInterrupt:
        pass
    return 0


def default_app_factory(
    store_dir: str,
    rate: float = 50.0,
    burst: float = 100.0,
    cache_bytes: int = DEFAULT_CACHE_BYTES,
) -> Callable[[], PublishApp]:
    """An app factory for :func:`run` (fresh store handle + registry per
    worker — metrics are per-process by design)."""

    def make() -> PublishApp:
        return PublishApp(
            SnapshotStore(store_dir), metrics=MetricsRegistry(),
            rate=rate, burst=burst, cache_bytes=cache_bytes,
        )

    return make


def run(
    app_factory: Callable[[], PublishApp],
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 1,
    ready: Optional[Callable[[Tuple[str, int]], None]] = None,
) -> int:
    """Serve ``app_factory()`` on ``host:port`` until SIGINT or SIGTERM.

    Binds one listening socket and calls ``ready`` with its ``(host,
    port)`` once (the CLI uses it for ``--port-file``).  With one worker
    the current process serves the socket.  With more, ``workers``
    forked children each build their own :class:`PublishApp` (own
    metrics, blob cache and token buckets) and accept from the shared
    socket — the kernel load-balances connections across them.  The
    parent then only supervises: it forwards ``SIGTERM``/``SIGINT`` to
    the children and returns the first nonzero child exit status (0
    when all exit cleanly).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers > 1 and not hasattr(os, "fork"):  # pragma: no cover
        raise RuntimeError("more than one worker requires os.fork (POSIX)")
    sock = _bind(host, port)
    address = sock.getsockname()[:2]
    try:
        if workers == 1:
            app = app_factory()
            if ready is not None:
                ready(address)
            return _serve_here(app, sock)
        pids = [_fork_worker(app_factory, sock) for _ in range(workers)]
        if ready is not None:
            ready(address)
        return _supervise(pids)
    finally:
        sock.close()


def _fork_worker(app_factory: Callable[[], PublishApp],
                 sock: socket.socket) -> int:
    pid = os.fork()
    if pid == 0:  # child: serve until signalled, never return
        status = 1
        try:
            status = _serve_here(app_factory(), sock)
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(status)
    return pid


def _supervise(pids: List[int]) -> int:
    def _forward(signum, _frame):  # pragma: no cover - signal timing
        for pid in pids:
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass

    previous = {
        signum: signal.signal(signum, _forward)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    status = 0
    try:
        for pid in pids:
            _pid, raw = os.waitpid(pid, 0)
            code = os.waitstatus_to_exitcode(raw)
            if code not in (0, -signal.SIGTERM, -signal.SIGINT) and not status:
                status = code if code > 0 else 1
    except KeyboardInterrupt:  # pragma: no cover - signal timing
        _forward(signal.SIGTERM, None)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return status


class AsyncServerHandle:
    """A running asyncio server owned by a background thread."""

    def __init__(self, server: AsyncPublishServer,
                 loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self._server = server
        self._loop = loop
        self._thread = thread
        self.address: Tuple[str, int] = server.address

    @property
    def port(self) -> int:
        return self.address[1]

    def stop(self, timeout: float = 5.0) -> None:
        self._loop.call_soon_threadsafe(self._server.stop)
        self._thread.join(timeout=timeout)


def start_in_thread(
    app: PublishApp,
    host: str = "127.0.0.1",
    port: int = 0,
    sendfile_min: int = SENDFILE_MIN,
) -> AsyncServerHandle:
    """Run the asyncio front end in a daemon thread (tests, benchmarks).

    Returns once the socket is listening; call ``.stop()`` to shut the
    loop down and join the thread.
    """
    sock = _bind(host, port)
    server = AsyncPublishServer(app, sendfile_min)
    started = threading.Event()
    holder: Dict[str, object] = {}

    def _started() -> None:
        holder["loop"] = asyncio.get_running_loop()
        started.set()

    def _run() -> None:
        try:
            asyncio.run(_serve(server, sock, _started))
        except Exception as error:  # surface startup failures to the caller
            holder["error"] = error
            started.set()
        finally:
            sock.close()

    thread = threading.Thread(
        target=_run, name="repro-aserve", daemon=True)
    thread.start()
    if not started.wait(timeout=10.0):
        raise RuntimeError("asyncio serving thread failed to start")
    if "error" in holder:
        raise RuntimeError(
            f"asyncio server failed to start: {holder['error']}")
    return AsyncServerHandle(
        server, holder["loop"], thread)  # type: ignore[arg-type]
