"""The HTTP wire surface shared by ``serve`` and ``serve --shards N``.

Every test runs against both surfaces: an in-process service and a
one-shard cluster front.  Requests go over raw sockets (with
``Connection: close``), so malformed or unusual requests reach the
server exactly as written.

- :class:`TestWireSurface` pins the error answers that both surfaces
  give before any work is routed: status, ``{"error": {"kind"}}``
  document, ``Server`` header and the ``requests_total`` sample each
  answer is counted under.
- :class:`TestAcceptBacklog` storms each listener with 64 concurrent
  fresh connections; the accept queue must hold them all, so no
  client waits out a dropped SYN's 1 s retransmit.  A two-shard
  front with half that job queue per shard is stormed too: its
  accept queue holds what all its shards can absorb.
- :class:`TestProtocolErrors` covers the errors ``http.server``
  raises itself (unsupported method, header flood): they must answer
  the same JSON error document as the routes and be counted.  A JSON
  ``null`` body is answered with a 400 too.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import pytest

from repro import __version__
from repro.core.schema import SCHEMA_VERSION
from repro.service import ServiceClient, ServiceConfig, start_service
from repro.service.cluster import ClusterConfig, start_cluster

from tests.service.test_cluster import wait_cluster_up
from tests.service.test_service import make_doc

#: one byte over the 32 MiB request-body cap
TOO_LARGE = 32 * 1024 * 1024 + 1


@dataclass
class Surface:
    port: int
    server: str
    requests_metric: str
    drain_timeout: float
    begin_drain: Callable[[], None]
    #: the ``threading.Event`` behind ``draining``; cleared again so
    #: the module-scoped surface keeps serving after the drain test
    draining_event: threading.Event

    @contextmanager
    def draining(self):
        self.begin_drain()
        try:
            yield
        finally:
            self.draining_event.clear()


@pytest.fixture(scope="module")
def service_surface():
    handle = start_service(ServiceConfig(port=0, workers=1,
                                         drain_timeout=5.0))
    try:
        yield Surface(
            port=handle.port,
            server=f"ppchecker/{__version__}",
            requests_metric="ppchecker_requests_total",
            drain_timeout=5.0,
            begin_drain=handle.service.begin_drain,
            draining_event=handle.service._draining,
        )
    finally:
        handle.close(deadline=5.0)


@pytest.fixture(scope="module")
def front_surface(tmp_path_factory):
    base = tmp_path_factory.mktemp("surface")
    handle = start_cluster(ClusterConfig(
        port=0, shards=1, workers=1,
        state_dir=str(base / "state"),
        drain_timeout=5.0,
    ))
    try:
        wait_cluster_up(ServiceClient(port=handle.port), shards=1)
        yield Surface(
            port=handle.port,
            server=f"ppchecker-front/{__version__}",
            requests_metric="ppchecker_front_requests_total",
            drain_timeout=5.0,
            begin_drain=handle.front.begin_drain,
            draining_event=handle.front._draining,
        )
    finally:
        handle.close()


@pytest.fixture(params=["service", "front"])
def surface(request) -> Surface:
    return request.getfixturevalue(f"{request.param}_surface")


#: concurrent fresh connections in the accept-queue storm
STORM = 64


@pytest.fixture(scope="module")
def sharded_front_port(tmp_path_factory):
    """A two-shard front whose shards each queue half the storm: only
    the shards' queues together cover it."""
    base = tmp_path_factory.mktemp("sharded")
    handle = start_cluster(ClusterConfig(
        port=0, shards=2, workers=1, queue_size=STORM // 2,
        state_dir=str(base / "state"),
        drain_timeout=5.0,
    ))
    try:
        wait_cluster_up(ServiceClient(port=handle.port), shards=2)
        yield handle.port
    finally:
        handle.close()


@pytest.fixture(params=["service", "front", "sharded_front"])
def storm_port(request) -> int:
    if request.param == "sharded_front":
        return request.getfixturevalue("sharded_front_port")
    return request.getfixturevalue(f"{request.param}_surface").port


def raw_request(port: int, head: str, body: bytes = b"",
                timeout: float = 10.0,
                ) -> tuple[int, dict[str, str], bytes]:
    """Send one hand-written request (*head* without the blank line
    that ends it) and read until the server closes.  Returns
    ``(status, headers, body)``."""
    data = b""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(head.encode("latin-1") + b"\r\n" + body)
        while chunk := sock.recv(65536):
            data += chunk
    raw_head, _, raw_body = data.partition(b"\r\n\r\n")
    assert raw_head, "connection closed without a response"
    lines = raw_head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip()] = value.strip()
    return int(lines[0].split()[1]), headers, raw_body


def request_head(method: str, path: str, *headers: str) -> str:
    lines = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1",
             "Connection: close", *headers]
    return "".join(f"{line}\r\n" for line in lines)


def post_head(path: str, body: bytes, *headers: str) -> str:
    return request_head("POST", path,
                        "Content-Type: application/json",
                        f"Content-Length: {len(body)}", *headers)


def requests_count(surface: Surface, endpoint: str,
                   status: int) -> float:
    """The surface's ``requests_total`` sample for one label pair
    (0 when the series does not exist yet)."""
    code, _, body = raw_request(surface.port,
                                request_head("GET", "/metrics"))
    assert code == 200
    pattern = re.compile(
        rf'^{surface.requests_metric}\{{endpoint="{re.escape(endpoint)}",'
        rf'status="{status}"\}} (\S+)$', re.MULTILINE)
    match = pattern.search(body.decode("utf-8"))
    return float(match.group(1)) if match else 0.0


def assert_error(surface: Surface, answer, status: int, kind: str,
                 endpoint: str, before: float) -> dict[str, str]:
    code, headers, body = answer
    assert code == status
    assert headers["Content-Type"] == "application/json"
    assert headers["Server"] == surface.server
    assert int(headers["Content-Length"]) == len(body)
    doc = json.loads(body)
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["error"]["kind"] == kind
    assert isinstance(doc["error"]["message"], str)
    assert requests_count(surface, endpoint, status) == before + 1
    return headers


class TestWireSurface:
    def test_server_header(self, surface):
        status, headers, _ = raw_request(
            surface.port, request_head("GET", "/healthz"))
        assert status == 200
        assert headers["Server"] == surface.server

    def test_length_required_411(self, surface):
        before = requests_count(surface, "/v1/check", 411)
        answer = raw_request(surface.port, request_head(
            "POST", "/v1/check", "Content-Type: application/json"))
        assert_error(surface, answer, 411, "length_required",
                     "/v1/check", before)

    def test_too_large_413_header_only(self, surface):
        before = requests_count(surface, "/v1/check", 413)
        # the header promises 32 MiB + 1; no body byte is ever sent
        answer = raw_request(surface.port, request_head(
            "POST", "/v1/check", "Content-Type: application/json",
            f"Content-Length: {TOO_LARGE}"))
        assert_error(surface, answer, 413, "too_large", "/v1/check",
                     before)

    def test_non_json_body_400(self, surface):
        before = requests_count(surface, "/v1/check", 400)
        body = b"{not json"
        answer = raw_request(surface.port,
                             post_head("/v1/check", body), body)
        assert_error(surface, answer, 400, "bad_request", "/v1/check",
                     before)

    def test_unknown_get_404(self, surface):
        before = requests_count(surface, "other", 404)
        answer = raw_request(surface.port,
                             request_head("GET", "/v1/nope"))
        assert_error(surface, answer, 404, "not_found", "other",
                     before)

    def test_unknown_post_404(self, surface):
        before = requests_count(surface, "other", 404)
        body = b"{}"
        answer = raw_request(surface.port,
                             post_head("/v1/nope", body), body)
        assert_error(surface, answer, 404, "not_found", "other",
                     before)

    @pytest.mark.parametrize("value", ["soon", "-1", "nan"])
    def test_bad_deadline_header_400(self, surface, value):
        before = requests_count(surface, "/v1/check", 400)
        body = json.dumps(make_doc()).encode("utf-8")
        answer = raw_request(surface.port, post_head(
            "/v1/check", body, f"X-Ppchecker-Deadline: {value}"), body)
        assert_error(surface, answer, 400, "bad_request", "/v1/check",
                     before)

    def test_draining_503_retry_after(self, surface):
        before = requests_count(surface, "/v1/check", 503)
        body = json.dumps(make_doc()).encode("utf-8")
        with surface.draining():
            answer = raw_request(surface.port,
                                 post_head("/v1/check", body), body)
        headers = assert_error(surface, answer, 503, "draining",
                               "/v1/check", before)
        assert headers["Retry-After"] == str(int(surface.drain_timeout))


class TestAcceptBacklog:
    CONNECTIONS = STORM
    #: below Linux's 1 s initial SYN retransmit: a connection whose
    #: SYN the full accept queue dropped cannot make it
    LIMIT_S = 0.9

    def test_connect_storm_is_accepted(self, storm_port):
        barrier = threading.Barrier(self.CONNECTIONS)
        outcomes: list = [None] * self.CONNECTIONS

        def one(slot: int) -> None:
            barrier.wait()
            started = time.monotonic()
            try:
                status, _, _ = raw_request(
                    storm_port, request_head("GET", "/healthz"),
                    timeout=5.0)
            except OSError as exc:
                outcomes[slot] = (repr(exc), time.monotonic() - started)
                return
            outcomes[slot] = (status, time.monotonic() - started)

        threads = [threading.Thread(target=one, args=(slot,))
                   for slot in range(self.CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        failed = [o for o in outcomes if o is None or o[0] != 200]
        slow = [o for o in outcomes
                if o is not None and o[1] >= self.LIMIT_S]
        assert not failed, failed
        assert not slow, sorted(o[1] for o in slow)


class TestProtocolErrors:
    """Errors ``http.server`` answers before any route runs, and a
    JSON ``null`` body, which must get an answer of its own."""

    def test_unsupported_method_501_is_json(self, surface):
        before = requests_count(surface, "/v1/check", 501)
        answer = raw_request(surface.port, request_head(
            "PUT", "/v1/check", "Content-Length: 0"))
        assert_error(surface, answer, 501, "not_implemented",
                     "/v1/check", before)

    def test_head_501_has_headers_only(self, surface):
        before = requests_count(surface, "/healthz", 501)
        status, headers, body = raw_request(
            surface.port, request_head("HEAD", "/healthz"))
        assert status == 501
        assert headers["Content-Type"] == "application/json"
        assert body == b""
        assert requests_count(surface, "/healthz", 501) == before + 1

    def test_malformed_request_line_400_is_json(self, surface):
        # four words: rejected before http.server records a path
        before = requests_count(surface, "other", 400)
        answer = raw_request(surface.port,
                             "GET /healthz extra HTTP/1.1\r\n"
                             "Host: 127.0.0.1\r\n")
        assert_error(surface, answer, 400, "bad_request", "other",
                     before)

    def test_malformed_request_line_after_keep_alive(self, surface):
        # the handler still holds the first request's path when the
        # second request line fails
        before = requests_count(surface, "other", 400)
        before_healthz = requests_count(surface, "/healthz", 400)
        good = ("GET /healthz HTTP/1.1\r\n"
                "Host: 127.0.0.1\r\n\r\n")
        bad = ("GET /healthz extra HTTP/1.1\r\n"
               "Host: 127.0.0.1\r\n\r\n")
        data = b""
        with socket.create_connection(("127.0.0.1", surface.port),
                                      timeout=10.0) as sock:
            sock.sendall((good + bad).encode("latin-1"))
            while chunk := sock.recv(65536):
                data += chunk
        # the second status line follows the first body directly
        statuses = re.findall(rb"HTTP/1\.[01] (\d{3}) ", data)
        assert statuses == [b"200", b"400"]
        assert requests_count(surface, "other", 400) == before + 1
        assert requests_count(surface, "/healthz", 400) == before_healthz

    def test_header_flood_431_is_json(self, surface):
        before = requests_count(surface, "/healthz", 431)
        flood = [f"X-Flood-{i}: {i}" for i in range(120)]
        answer = raw_request(surface.port,
                             request_head("GET", "/healthz", *flood))
        assert_error(surface, answer, 431,
                     "request_header_fields_too_large", "/healthz",
                     before)

    def test_null_body_400(self, surface):
        before = requests_count(surface, "/v1/check", 400)
        body = b"null"
        answer = raw_request(surface.port,
                             post_head("/v1/check", body), body)
        assert_error(surface, answer, 400, "bad_request", "/v1/check",
                     before)
