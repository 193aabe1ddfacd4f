"""The HTTP core shared by ``ppchecker serve`` and its cluster front.

The check service (:mod:`repro.service.server`) and the cluster front
(:mod:`repro.service.cluster`) keep only their routes and domain
logic.  Everything about speaking HTTP lives here, once:

- :class:`JSONHandler`, the request-handler base: ``Server`` header,
  JSON answers counted into the surface's ``requests`` counter, the
  versioned ``{"error": {"kind", "message"}}`` document (also for the
  errors :mod:`http.server` raises itself), body and deadline intake;
- :class:`Listener`, a bound threading server on a daemon thread,
  with its accept backlog sized from the job queue it feeds;
- :func:`wait_for_signal`, :func:`batch_summary`, the ``--port-file``
  writer and reader, and :func:`request_json`, the JSON round trip
  used by :class:`~repro.service.client.ServiceClient` and by the
  front's calls to its shards.

Stdlib only (:mod:`http.server`, :mod:`http.client`).
"""

from __future__ import annotations

import json
import os
import re
import signal
import tempfile
import threading
import time
from collections import Counter
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.core.schema import versioned

#: cap on request bodies (a serialized bundle), bytes
MAX_BODY_BYTES = 32 * 1024 * 1024

#: request-level deadline intake: relative seconds, as an HTTP header
#: or a reserved top-level key in the bundle document.  The field is
#: stripped before parsing/fingerprinting, so the same bundle with
#: different deadlines still shares one content hash (coalescing and
#: cluster routing stay deadline-blind).
DEADLINE_HEADER = "X-Ppchecker-Deadline"
DEADLINE_FIELD = "deadline_s"

METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_JOB_PATH = re.compile(r"^/v1/jobs/([A-Za-z0-9_.-]+)$")
_ENDPOINTS = frozenset(("/healthz", "/metrics", "/v1/check", "/v1/jobs",
                        "/v1/batch", "/v1/deadletter"))


class InvalidDeadline(ValueError):
    """The request's deadline header/field is not a positive number."""


def parse_deadline_seconds(value: Any) -> float:
    """A deadline is a finite, positive number of seconds."""
    try:
        seconds = float(value)
    except (TypeError, ValueError) as exc:
        raise InvalidDeadline(
            f"deadline must be a number of seconds: {value!r}"
        ) from exc
    if not seconds > 0 or seconds != seconds or seconds == float("inf"):
        raise InvalidDeadline(
            f"deadline must be a finite positive number of seconds: "
            f"{value!r}")
    return seconds


class JSONHandler(BaseHTTPRequestHandler):
    """Request-handler base for a JSON surface.

    The server's ``app`` (a :class:`~repro.service.server.CheckService`
    or a :class:`~repro.service.cluster.ClusterFront`) provides
    ``metrics.requests`` (counted per answer), ``metrics.render()``
    and ``config.drain_timeout``.  Subclasses set ``server_version``
    and add ``do_GET``/``do_POST``."""

    protocol_version = "HTTP/1.1"

    def version_string(self) -> str:
        return self.server_version  # no sys_version leak

    @property
    def app(self) -> Any:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        pass  # /metrics is the observability surface, not stderr

    def _endpoint(self) -> str:
        # http.server may fail a request line before it sets command
        # and path; path may still be the previous keep-alive request's
        if not self.command:
            return "other"
        path = self.path.split("?", 1)[0]
        if _JOB_PATH.match(path):
            return "/v1/jobs/{id}"
        return path if path in _ENDPOINTS else "other"

    # -- answers -----------------------------------------------------------

    def _send(self, status: int, body: bytes, content_type: str,
              headers: dict[str, str] | None = None) -> None:
        self.app.metrics.requests.inc(endpoint=self._endpoint(),
                                      status=str(status))
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _send_json(self, status: int, payload: dict,
                   headers: dict[str, str] | None = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json", headers)

    def _send_error_json(self, status: int, kind: str, message: str,
                         headers: dict[str, str] | None = None,
                         **extra: Any) -> None:
        self._send_json(status, versioned(
            {"error": {"kind": kind, "message": message, **extra}}
        ), headers)

    def _send_draining(self) -> None:
        """503 for new work during a drain; the remaining work can
        take up to the configured drain budget."""
        self._send_error_json(
            503, "draining", "service is shutting down",
            headers={"Retry-After": str(max(1, int(
                self.app.config.drain_timeout)))})

    def send_error(self, code: int, message: str | None = None,
                   explain: str | None = None) -> None:
        """Errors :mod:`http.server` answers itself (bad request line,
        header flood, unsupported method): its status, but the JSON
        error document -- kind is the snake-cased reason phrase --
        counted like any other answer, and the connection closed."""
        code = int(code)  # an HTTPStatus; its str() is the name on 3.10
        phrase = self.responses.get(code, ("Error",))[0]
        self._send_error_json(
            code, re.sub(r"\W+", "_", phrase.lower()), message or phrase,
            headers={"Connection": "close"})

    # -- intake ------------------------------------------------------------

    def _read_json(self) -> Any:
        """The request body, JSON-decoded; None once an error has
        been answered instead."""
        length = self.headers.get("Content-Length")
        if length is None:
            self._send_error_json(411, "length_required",
                                  "Content-Length is required")
            return None
        try:
            length = int(length)
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would block until the client hangs up
            self.close_connection = True
            self._send_error_json(
                400, "bad_request",
                "Content-Length must be a non-negative integer")
            return None
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            self._send_error_json(
                413, "too_large", f"body exceeds {MAX_BODY_BYTES} bytes")
            return None
        body = self.rfile.read(length)
        try:
            doc = json.loads(body)
        except ValueError:
            self._send_error_json(400, "bad_request",
                                  "request body is not valid JSON")
            return None
        if doc is None:
            # None already means "answered" to every caller
            self._send_error_json(400, "bad_request",
                                  "request body must not be JSON null")
        return doc

    def _read_bundles(self) -> list | None:
        """A ``/v1/batch`` body's bundle documents; None once a 400
        has been answered instead."""
        doc = self._read_json()
        if doc is None:
            return None
        bundles = doc.get("bundles") if isinstance(doc, dict) else doc
        if not isinstance(bundles, list) or not bundles:
            self._send_error_json(
                400, "bad_request",
                'body must be {"bundles": [bundle, ...]}')
            return None
        return bundles

    def _deadline_seconds(self, doc: Any) -> float | None:
        """The request's relative deadline in seconds, from the
        reserved ``deadline_s`` document field (popped -- it must
        never reach a fingerprint) or the ``X-Ppchecker-Deadline``
        header; the field wins when both are present.  Raises
        :class:`InvalidDeadline` on garbage."""
        if isinstance(doc, dict) and DEADLINE_FIELD in doc:
            value = doc.pop(DEADLINE_FIELD)
        else:
            value = self.headers.get(DEADLINE_HEADER)
        return None if value is None else parse_deadline_seconds(value)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int],
                 handler: type[JSONHandler], app: Any,
                 backlog: int) -> None:
        self.app = app
        # read by server_activate()'s listen(), which __init__ calls;
        # never below socketserver's default
        self.request_queue_size = max(backlog, self.request_queue_size)
        super().__init__(address, handler)


class Listener:
    """An HTTP listener serving *app* on a daemon thread; the base of
    the service and cluster handles.

    *backlog* sizes the kernel accept queue.  Callers pass the job
    capacity behind the listener, so a burst of connections the job
    queue can absorb is never dropped at SYN (a dropped SYN costs the
    client a 1 s retransmit)."""

    def __init__(self, app: Any, handler: type[JSONHandler],
                 host: str, port: int, *, backlog: int,
                 port_file: str | None, name: str) -> None:
        self.httpd = _Server((host, port), handler, app, backlog)
        if port_file is not None:
            write_port_file(port_file, self.port)
        self.thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.05}, daemon=True, name=name)
        self.thread.start()

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    def stop_listening(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(5.0)


def wait_for_signal() -> None:
    """Block until SIGTERM or SIGINT (the ``serve`` main loop), then
    restore the previous handlers."""
    stop = threading.Event()
    previous = {
        sig: signal.signal(sig, lambda signum, frame: stop.set())
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        stop.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def batch_summary(results: list[dict]) -> dict:
    """The ``POST /v1/batch`` answer over per-bundle *results*."""
    counts = Counter(result.get("status", "rejected")
                     for result in results)
    return versioned({
        "results": results,
        "checked": counts["ok"],
        "quarantined": counts["quarantined"],
        "rejected": counts["rejected"] + counts["invalid"],
        "shed": counts["shed"],
    })


def write_port_file(path: str, port: int) -> None:
    """Publish the bound port atomically: readers polling the path
    see nothing or the complete number, never a partial write."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(f"{port}\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_port_file(path: str, timeout: float = 30.0) -> int:
    """Poll *path* until a serving process publishes its bound port
    (the reader half of ``--port-file``; supervisors and tests use
    this instead of the racy probe-a-port-then-release dance)."""
    end = time.monotonic() + timeout
    while True:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read().strip()
            if text:
                return int(text)
        except (OSError, ValueError):
            pass
        if time.monotonic() > end:
            raise TimeoutError(f"no port published at {path}")
        time.sleep(0.05)


def request_json(host: str, port: int, method: str, path: str,
                 doc: Any = None, *, headers: dict[str, str] | None = None,
                 timeout: float) -> tuple[int, dict[str, str], Any]:
    """One round trip on a fresh connection; returns ``(status,
    headers, payload)`` with the payload JSON-decoded when the
    response is JSON, text otherwise."""
    headers = dict(headers or {})
    body = None
    if doc is not None:
        body = json.dumps(doc).encode("utf-8")
        headers["Content-Type"] = "application/json"
    conn = HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    response_headers = dict(response.getheaders())
    payload: Any
    if response_headers.get("Content-Type", "").startswith(
            "application/json"):
        payload = json.loads(raw) if raw else None
    else:
        payload = raw.decode("utf-8", "replace")
    return response.status, response_headers, payload
