"""The sharded check service: one accept process, N pipeline workers.

``ppchecker serve --shards N`` splits the single-process service into
a **front** (this module -- a lightweight accept/route process that
never runs a pipeline) and N **shard** processes, each a full
``ppchecker serve`` with its own GIL, worker threads, job journal,
and dead-letter queue.  The front:

- routes every submission by the content hash of its bundle document
  over the consistent-hash ring (:mod:`repro.service.hashring`), so
  identical bundles always land on the same shard and its coalescing
  and redelivery machinery keep working unchanged;
- namespaces shard job ids (``job-3`` on shard 1 becomes ``s1-job-3``)
  so one client-visible id space spans the cluster;
- supervises the shards: a dead shard is respawned, its journal is
  replayed (``--state-dir``), poison pills are dead-lettered within
  the existing redelivery budget, and requests that raced the crash
  are retried against the respawned shard;
- aggregates ``/healthz`` (degraded, not down, while any shard lives)
  and ``/v1/deadletter`` across the cluster, and exposes its own
  ``/metrics`` (routing counters, shard liveness, restarts).

Shards share one artifact database
(:class:`~repro.pipeline.artifacts.SharedDiskStore`, ``--store
sqlite``) when ``--cache-dir`` is set, so a cache hit in one worker
process is a hit in all.
"""

from __future__ import annotations

import json
import os
import queue
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro import __version__
from repro.core.schema import versioned
from repro.hashing import fingerprint
from repro.pipeline.resilience import Deadline, RetryBudget
from repro.service.breaker import CLOSED, CircuitBreaker, LatencyTracker
from repro.service.hashring import HashRing, shard_name
from repro.service.metrics import CallbackGaugeFamily, MetricsRegistry
from repro.service.runner import shed_error
from repro.service.server import (
    DEADLINE_FIELD,
    DEADLINE_HEADER,
    InvalidDeadline,
    _write_port_file,
    parse_deadline_seconds,
    read_port_file,
)

_JOB_PATH = re.compile(r"^/v1/jobs/([A-Za-z0-9_.-]+)$")
_SHARD_ID = re.compile(r"^s(\d+)-(.+)$")


@dataclass
class ClusterConfig:
    """Everything ``ppchecker serve --shards N`` needs.

    Values that configure the shard processes (workers, queue size,
    cache dir, fault plan, ...) are forwarded to each ``serve``
    subprocess as CLI flags, so they are paths and scalars, never
    live objects.
    """

    host: str = "127.0.0.1"
    port: int = 8742
    port_file: str | None = None
    shards: int = 3
    #: worker threads *per shard*
    workers: int = 2
    queue_size: int = 64
    #: shared artifact cache -- every shard points its sqlite
    #: :class:`~repro.pipeline.artifacts.SharedDiskStore` here
    cache_dir: str | None = None
    #: per-shard job journals live in ``<state_dir>/shard-<i>``
    state_dir: str | None = None
    lib_policies: str | None = None
    fault_plan: str | None = None
    max_retries: int = 0
    stage_timeout: float | None = None
    request_timeout: float = 300.0
    drain_timeout: float = 10.0
    max_body_bytes: int = 32 * 1024 * 1024
    max_redeliveries: int = 3
    #: completed-job LRU capacity *per shard* (the cluster resolves
    #: ``shards`` times this many in aggregate)
    completed_jobs: int = 256
    #: memory-tier artifact cache entries *per shard*
    cache_entries: int = 8192
    #: how long the front waits for a respawning shard before failing
    #: a request over to the client
    reroute_timeout: float = 30.0
    #: per-shard fault plan paths (``{shard index: path}``); a listed
    #: shard gets its own plan instead of ``fault_plan`` -- how the
    #: brownout chaos harness browns out exactly one shard of N
    shard_fault_plans: dict[int, str] = field(default_factory=dict)
    #: retry token-bucket capacity, forwarded to every shard
    #: (``--retry-budget``) and shared by the front's own reroute
    #: retries and hedges; None = unlimited, the historical behaviour
    retry_budget: float | None = None
    #: tokens the retry bucket regains per second
    retry_budget_refill: float = 1.0
    #: default per-job deadline forwarded to every shard
    #: (``--deadline``); None = unbounded
    default_deadline: float | None = None
    #: hedge idempotent ``/v1/check`` submissions: race a second shard
    #: when the primary is slower than the p95-derived hedge delay
    hedge: bool = True
    #: hedge delay (seconds) used until the front's latency window
    #: has enough samples to derive a p95
    hedge_delay: float = 1.0
    #: consecutive failures (or brownout-slow successes) that open a
    #: shard's circuit breaker
    breaker_failures: int = 5
    #: a shard success slower than this (seconds) counts as a breaker
    #: failure -- the brownout signal; None disables latency tripping
    breaker_latency: float | None = None
    #: how long an open breaker cools off before its half-open probe
    breaker_cooloff: float = 5.0


class ShardProcess:
    """One supervised ``ppchecker serve`` subprocess."""

    def __init__(self, index: int, config: ClusterConfig,
                 run_dir: str) -> None:
        self.index = index
        self.name = shard_name(index)
        self.config = config
        self.port_file = os.path.join(run_dir, f"{self.name}.port")
        self.port: int | None = None
        self.process: subprocess.Popen | None = None
        self.restarts = 0

    def command(self) -> list[str]:
        config = self.config
        cmd = [sys.executable, "-m", "repro.cli", "serve",
               "--host", config.host,
               "--port", "0", "--port-file", self.port_file,
               "--workers", str(config.workers),
               "--queue-size", str(config.queue_size),
               "--request-timeout", str(config.request_timeout),
               "--drain-timeout", str(config.drain_timeout),
               "--max-redeliveries", str(config.max_redeliveries),
               "--max-retries", str(config.max_retries),
               "--completed-jobs", str(config.completed_jobs),
               "--cache-entries", str(config.cache_entries)]
        if config.cache_dir is not None:
            cmd += ["--cache-dir", config.cache_dir,
                    "--store", "sqlite"]
        if config.state_dir is not None:
            cmd += ["--state-dir",
                    os.path.join(config.state_dir, self.name)]
        if config.lib_policies is not None:
            cmd += ["--lib-policies", config.lib_policies]
        fault_plan = config.shard_fault_plans.get(
            self.index, config.fault_plan)
        if fault_plan is not None:
            cmd += ["--fault-plan", fault_plan]
        if config.stage_timeout is not None:
            cmd += ["--stage-timeout", str(config.stage_timeout)]
        if config.retry_budget is not None:
            cmd += ["--retry-budget", str(config.retry_budget),
                    "--retry-budget-refill",
                    str(config.retry_budget_refill)]
        if config.default_deadline is not None:
            cmd += ["--deadline", str(config.default_deadline)]
        return cmd

    def spawn(self, timeout: float = 60.0) -> None:
        """Start (or restart) the subprocess and wait for its port."""
        if os.path.exists(self.port_file):
            os.unlink(self.port_file)
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else "")
        self.process = subprocess.Popen(
            self.command(), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.port = read_port_file(self.port_file, timeout=timeout)

    @property
    def alive(self) -> bool:
        return (self.process is not None
                and self.process.poll() is None)

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def terminate(self) -> None:
        if self.alive:
            assert self.process is not None
            self.process.send_signal(signal.SIGTERM)

    def join(self, timeout: float) -> None:
        if self.process is None:
            return
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=10)


class ShardSupervisor:
    """Spawns the shards, keeps the ring current, respawns the dead.

    The monitor thread polls shard liveness; a dead shard leaves the
    ring immediately (submissions re-route or wait), is respawned,
    replays its journal (re-queueing in-flight jobs, dead-lettering
    poison pills over the redelivery budget), and rejoins the ring.
    """

    POLL_INTERVAL = 0.1

    def __init__(self, config: ClusterConfig, run_dir: str,
                 metrics: "FrontMetrics") -> None:
        self.config = config
        self.metrics = metrics
        self.shards = [ShardProcess(i, config, run_dir)
                       for i in range(config.shards)]
        self.ring = HashRing()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._monitor, daemon=True,
            name="ppchecker-shard-supervisor")

    def start(self) -> None:
        for shard in self.shards:
            shard.spawn()
            self.ring.add(shard.name)
        self._thread.start()

    def _monitor(self) -> None:
        while not self._stop.is_set():
            for shard in self.shards:
                if self._stop.is_set():
                    return
                if shard.alive:
                    continue
                with self._lock:
                    self.ring.remove(shard.name)
                try:
                    shard.spawn()
                except (OSError, TimeoutError):
                    # spawn failed; the next poll tries again
                    continue
                shard.restarts += 1
                self.metrics.shard_restarts.inc(shard=shard.name)
                with self._lock:
                    self.ring.add(shard.name)
            self._stop.wait(self.POLL_INTERVAL)

    # -- routing -----------------------------------------------------------

    def route(self, key: str) -> ShardProcess | None:
        """The live shard owning *key*, or None while none are up."""
        with self._lock:
            try:
                name = self.ring.place(key)
            except LookupError:
                return None
        return self.shards[int(name.split("-", 1)[1])]

    def route_preference(self, key: str) -> list[ShardProcess]:
        """Every live shard in deterministic failover order for
        *key* (``[0]`` is the ring owner) -- what breaker-aware
        routing and hedging walk."""
        with self._lock:
            try:
                names = self.ring.preference(key)
            except LookupError:
                return []
        return [self.shards[int(name.split("-", 1)[1])]
                for name in names]

    def shard(self, index: int) -> ShardProcess | None:
        if 0 <= index < len(self.shards):
            return self.shards[index]
        return None

    @property
    def alive(self) -> int:
        return sum(1 for shard in self.shards if shard.alive)

    def stop(self) -> None:
        """Graceful: SIGTERM every shard (they drain their queues),
        join, and stop the monitor so nothing is respawned."""
        self._stop.set()
        self._thread.join(5.0)
        for shard in self.shards:
            shard.terminate()
        deadline = self.config.drain_timeout + 10.0
        for shard in self.shards:
            shard.join(deadline)


class FrontMetrics:
    """The accept process's instrument set (``GET /metrics``)."""

    def __init__(self, supervisor_alive) -> None:
        self.registry = MetricsRegistry()
        r = self.registry
        self.requests = r.counter(
            "ppchecker_front_requests_total",
            "HTTP requests served by the accept process, by "
            "endpoint and status code.",
            ("endpoint", "status"),
        )
        self.routed = r.counter(
            "ppchecker_routed_total",
            "Submissions routed to a shard, by shard.",
            ("shard",),
        )
        self.shard_restarts = r.counter(
            "ppchecker_shard_restarts_total",
            "Dead shard processes respawned by the supervisor, "
            "by shard.",
            ("shard",),
        )
        self.reroutes = r.counter(
            "ppchecker_reroutes_total",
            "Requests retried after their shard died mid-flight, "
            "by shard.",
            ("shard",),
        )
        self.shards_alive = r.gauge(
            "ppchecker_shards_alive",
            "Shard processes currently alive.",
            callback=supervisor_alive,
        )
        self.hedges = r.counter(
            "ppchecker_hedges_total",
            "Hedged /v1/check submissions, by outcome (primary_won "
            "| hedge_won | suppressed -- the retry budget was dry).",
            ("outcome",),
        )
        self.breaker_transitions = r.counter(
            "ppchecker_breaker_transitions_total",
            "Circuit-breaker state changes, by shard and new state.",
            ("shard", "to"),
        )
        self.deadline_shed = r.counter(
            "ppchecker_deadline_shed_total",
            "Requests shed at the front because their deadline "
            "expired before any shard could take the work.",
        )

    def register_breakers(self, breakers) -> None:
        """Expose live breaker states as
        ``ppchecker_breaker_state{shard=...}`` (0 closed / 1
        half-open / 2 open); *breakers* is ``{shard name: breaker}``."""
        self.registry.register(CallbackGaugeFamily(
            "ppchecker_breaker_state",
            "Per-shard circuit-breaker state "
            "(0 closed, 1 half-open, 2 open).",
            "shard",
            lambda: {name: float(b.state_code)
                     for name, b in breakers.items()},
        ))

    def register_retry_budget(self, budget) -> None:
        """Expose the front's shared retry/hedge token bucket."""
        self.registry.gauge(
            "ppchecker_retry_budget_remaining",
            "Tokens left in the front's retry budget; reroute "
            "retries and hedges are denied when it reaches zero.",
            callback=lambda: budget.remaining,
        )

    def render(self) -> str:
        return self.registry.render()


def _prefixed(payload: Any, index: int) -> Any:
    """Rewrite shard-local job ids in *payload* into the cluster id
    space (``job-3`` -> ``s1-job-3``)."""
    if not isinstance(payload, dict):
        return payload
    doc = dict(payload)
    for field in ("id", "job_id"):
        value = doc.get(field)
        if isinstance(value, str):
            doc[field] = f"s{index}-{value}"
    location = doc.get("location")
    if isinstance(location, str) and location.startswith("/v1/jobs/"):
        doc["location"] = ("/v1/jobs/"
                           f"s{index}-{location[len('/v1/jobs/'):]}")
    return doc


class ShardUnavailable(Exception):
    """No live shard could take the request within the budget."""


class FrontDeadlineExpired(Exception):
    """The request's deadline ran out while the front was still
    routing (waiting out a respawn or retrying a flaky shard)."""

    def __init__(self, deadline: Deadline | None) -> None:
        self.deadline = deadline
        super().__init__("deadline expired at the cluster front")


def _routing_key(doc: Any) -> str:
    """The content fingerprint used for shard placement, blind to
    the reserved ``deadline_s`` field -- the same bundle with a
    different (or no) budget must land on the same shard so its
    coalescing and artifact locality survive deadlines."""
    if isinstance(doc, dict) and DEADLINE_FIELD in doc:
        doc = {key: value for key, value in doc.items()
               if key != DEADLINE_FIELD}
    return fingerprint(doc)


class _FrontHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = f"ppchecker-front/{__version__}"

    def version_string(self) -> str:
        return self.server_version

    # -- plumbing ----------------------------------------------------------

    @property
    def front(self) -> "ClusterFront":
        return self.server.front  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        pass

    def _endpoint(self) -> str:
        path = self.path.split("?", 1)[0]
        if _JOB_PATH.match(path):
            return "/v1/jobs/{id}"
        if path in ("/healthz", "/metrics", "/v1/check", "/v1/jobs",
                    "/v1/batch", "/v1/deadletter"):
            return path
        return "other"

    def _send_json(self, status: int, payload: dict,
                   headers: dict[str, str] | None = None) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.front.metrics.requests.inc(
            endpoint=self._endpoint(), status=str(status))
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, kind: str, message: str,
                         headers: dict[str, str] | None = None,
                         **extra: Any) -> None:
        self._send_json(status, versioned(
            {"error": {"kind": kind, "message": message, **extra}}
        ), headers)

    def _read_json(self) -> Any:
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
        if length > self.front.config.max_body_bytes:
            self.close_connection = True
            self._send_error_json(
                413, "too_large",
                f"body exceeds "
                f"{self.front.config.max_body_bytes} bytes")
            return None
        body = self.rfile.read(length)
        try:
            return json.loads(body)
        except ValueError:
            self._send_error_json(400, "bad_request",
                                  "request body is not valid JSON")
            return None

    def _unavailable(self) -> None:
        self._send_error_json(
            503, "shard_unavailable",
            "no shard could take the request; the supervisor is "
            "respawning", headers={"Retry-After": "1"})

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._send_json(200, self.front.healthz())
            return
        if path == "/metrics":
            body = self.front.metrics.render().encode()
            self.front.metrics.requests.inc(
                endpoint="/metrics", status="200")
            self.send_response(200)
            self.send_header(
                "Content-Type",
                "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        if path == "/v1/deadletter":
            self._send_json(200, self.front.deadletters())
            return
        match = _JOB_PATH.match(path)
        if match:
            self._job_status(match.group(1))
            return
        self._send_error_json(404, "not_found",
                              f"no such endpoint: {path}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if self.front.draining:
            doc = self._read_json()
            if doc is None:
                return
            self._send_error_json(
                503, "draining", "service is shutting down",
                headers={"Retry-After": str(max(1, int(
                    self.front.config.drain_timeout)))})
            return
        if path == "/v1/check":
            self._proxy_submission("/v1/check")
        elif path == "/v1/jobs":
            self._proxy_submission("/v1/jobs")
        elif path == "/v1/batch":
            self._batch()
        else:
            doc = self._read_json()
            if doc is not None:
                self._send_error_json(404, "not_found",
                                      f"no such endpoint: {path}")

    def _request_deadline(self, doc: Any) -> Deadline | None:
        """The submission's deadline, from the reserved ``deadline_s``
        field (popped before the routing fingerprint) or the
        ``X-Ppchecker-Deadline`` header; the field wins.  The front
        starts the clock here and forwards the *remaining* budget to
        whichever shard finally takes the work."""
        value: Any = None
        if isinstance(doc, dict) and DEADLINE_FIELD in doc:
            value = doc.pop(DEADLINE_FIELD)
        elif self.headers.get(DEADLINE_HEADER) is not None:
            value = self.headers.get(DEADLINE_HEADER)
        if value is None:
            return None
        return Deadline.after(parse_deadline_seconds(value))

    def _send_shed(self, deadline: Deadline | None) -> None:
        self.front.metrics.deadline_shed.inc()
        self._send_json(504, versioned({
            "error": shed_error("?", deadline,
                                "at the cluster front"),
        }), headers={"Retry-After": "1"})

    def _proxy_submission(self, path: str) -> None:
        doc = self._read_json()
        if doc is None:
            return
        try:
            deadline = self._request_deadline(doc)
        except InvalidDeadline as exc:
            self._send_error_json(400, "bad_request", str(exc))
            return
        try:
            shard, status, headers, payload = \
                self.front.submit_to_shard(doc, path,
                                           deadline=deadline)
        except FrontDeadlineExpired as exc:
            self._send_shed(exc.deadline)
            return
        except ShardUnavailable:
            self._unavailable()
            return
        out: dict[str, str] = {}
        retry_after = headers.get("Retry-After")
        if retry_after is not None:
            out["Retry-After"] = retry_after
        payload = _prefixed(payload, shard.index)
        if isinstance(payload, dict) and "location" in payload:
            out["Location"] = payload["location"]
        self._send_json(status, payload, out or None)

    def _job_status(self, job_id: str) -> None:
        match = _SHARD_ID.match(job_id)
        if not match:
            self._send_error_json(
                404, "not_found", f"no such job: {job_id}")
            return
        index, local_id = int(match.group(1)), match.group(2)
        shard = self.front.supervisor.shard(index)
        if shard is None:
            self._send_error_json(
                404, "not_found", f"no such shard: s{index}")
            return
        try:
            status, headers, payload = self.front.proxy(
                shard, "GET", f"/v1/jobs/{local_id}")
        except ShardUnavailable:
            self._unavailable()
            return
        self._send_json(status, _prefixed(payload, index))

    def _batch(self) -> None:
        doc = self._read_json()
        if doc is None:
            return
        bundles = doc.get("bundles") if isinstance(doc, dict) else doc
        if not isinstance(bundles, list) or not bundles:
            self._send_error_json(
                400, "bad_request",
                'body must be {"bundles": [bundle, ...]}')
            return
        self._send_json(*self.front.batch(bundles))


class ClusterFront:
    """Routing, aggregation, and retry logic behind the handler."""

    def __init__(self, config: ClusterConfig,
                 supervisor: ShardSupervisor,
                 metrics: FrontMetrics) -> None:
        self.config = config
        self.supervisor = supervisor
        self.metrics = metrics
        self._draining = threading.Event()
        #: one breaker per shard, fed from every proxied request;
        #: open breakers divert traffic to the next ring owner
        self.breakers = {
            shard.name: CircuitBreaker(
                failure_threshold=config.breaker_failures,
                latency_threshold=config.breaker_latency,
                open_seconds=config.breaker_cooloff,
                on_transition=(
                    lambda state, name=shard.name:
                    metrics.breaker_transitions.inc(shard=name,
                                                    to=state)),
            )
            for shard in supervisor.shards
        }
        metrics.register_breakers(self.breakers)
        #: /v1/check latency window; its p95 is the hedge delay
        self.latency = LatencyTracker(default_delay=config.hedge_delay)
        #: shared token bucket bounding reroute retries and hedges,
        #: so a brownout cannot amplify into a front-side storm
        self.retry_budget = (
            RetryBudget(config.retry_budget,
                        config.retry_budget_refill)
            if config.retry_budget is not None else None)
        if self.retry_budget is not None:
            metrics.register_retry_budget(self.retry_budget)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        self._draining.set()

    # -- shard I/O ---------------------------------------------------------

    def proxy(self, shard: ShardProcess, method: str, path: str,
              doc: Any = None,
              deadline: Deadline | None = None,
              ) -> tuple[int, dict[str, str], Any]:
        """One request to *shard*, retried across a respawn window.

        A shard that dies mid-flight (connection refused/reset) is
        retried until it -- or its replacement on the same ring
        position -- answers, bounded by ``reroute_timeout``, the
        request's remaining *deadline*, and (when configured) the
        front's retry budget.  Every outcome feeds the shard's
        breaker: connection failures and 5xx answers count against
        it, fast answers reset it, and -- with ``breaker_latency``
        set -- slow answers count as brownout failures even though
        the response is still used."""
        reroute_until = time.monotonic() + self.config.reroute_timeout
        breaker = self.breakers.get(shard.name)
        attempt = 0
        while True:
            if deadline is not None and deadline.expired:
                raise FrontDeadlineExpired(deadline)
            started = time.monotonic()
            try:
                status, headers, payload = self._request(
                    shard, method, path, doc, deadline=deadline)
            except (OSError, HTTPException):
                # connection refused (respawning), reset, or torn
                # mid-response (the shard died while answering)
                if breaker is not None:
                    breaker.record_failure()
                attempt += 1
                if attempt > 1:
                    self.metrics.reroutes.inc(shard=shard.name)
                if time.monotonic() >= reroute_until:
                    raise ShardUnavailable(shard.name)
                if (self.retry_budget is not None
                        and not self.retry_budget.try_acquire()):
                    # dry budget: fail fast instead of storming a
                    # cluster that is already in trouble
                    raise ShardUnavailable(shard.name)
                time.sleep(0.2)
                continue
            if breaker is not None:
                # 504 is a deadline shed -- the shard doing its job,
                # not the shard failing
                if status >= 500 and status != 504:
                    breaker.record_failure()
                else:
                    breaker.record_success(time.monotonic() - started)
            return status, headers, payload

    def _request(self, shard: ShardProcess, method: str, path: str,
                 doc: Any = None,
                 deadline: Deadline | None = None,
                 ) -> tuple[int, dict[str, str], Any]:
        if shard.port is None:
            raise ConnectionError(f"{shard.name} has no port yet")
        conn = HTTPConnection(self.config.host, shard.port,
                              timeout=self.config.request_timeout)
        try:
            body = None
            headers = {}
            if doc is not None:
                body = json.dumps(doc).encode("utf-8")
                headers["Content-Type"] = "application/json"
            if deadline is not None:
                # forward what is *left* of the budget, so time spent
                # routing at the front is not granted twice
                headers[DEADLINE_HEADER] = (
                    f"{max(deadline.remaining(), 0.001):.6f}")
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            response_headers = dict(response.getheaders())
            content_type = response_headers.get("Content-Type", "")
            payload: Any
            if content_type.startswith("application/json"):
                payload = json.loads(raw) if raw else None
            else:
                payload = raw.decode("utf-8", "replace")
            return response.status, response_headers, payload
        finally:
            conn.close()

    def _pick_shard(self, key: str) -> ShardProcess | None:
        """The first live shard in *key*'s failover order whose
        breaker admits the request.

        A closed breaker is consulted without side effects; an open
        one past its cool-off admits this request as the half-open
        probe.  When every live breaker refuses, the ring owner is
        used anyway -- breakers shift load onto healthy shards, they
        never turn a brownout into an outage."""
        preference = self.supervisor.route_preference(key)
        for shard in preference:
            breaker = self.breakers.get(shard.name)
            if breaker is None or breaker.allow():
                return shard
        return preference[0] if preference else None

    def submit_to_shard(self, doc: Any, path: str,
                        deadline: Deadline | None = None,
                        ) -> tuple[ShardProcess, int,
                                   dict[str, str], Any]:
        """Route one bundle document by content hash and forward it.

        The routing key is the canonical fingerprint of the raw JSON
        document -- cheap (no bundle parsing in the accept process)
        and deterministic, so identical documents always reach the
        same shard and coalesce there.  Routing walks the key's
        failover order past open breakers; idempotent ``/v1/check``
        submissions are additionally hedged."""
        key = _routing_key(doc)
        wait_until = time.monotonic() + self.config.reroute_timeout
        while True:
            shard = self._pick_shard(key)
            if shard is not None:
                break
            if deadline is not None and deadline.expired:
                raise FrontDeadlineExpired(deadline)
            if time.monotonic() >= wait_until:
                raise ShardUnavailable(key)
            time.sleep(0.2)
        self.metrics.routed.inc(shard=shard.name)
        if path == "/v1/check" and self.config.hedge:
            return self._check_hedged(key, shard, doc, deadline)
        status, headers, payload = self.proxy(shard, "POST", path,
                                              doc, deadline=deadline)
        return shard, status, headers, payload

    def _hedge_peer(self, key: str,
                    primary: ShardProcess) -> ShardProcess | None:
        """The shard a hedged check races against *primary*: the
        next shard in the key's failover order whose breaker is
        fully closed.  Half-open shards are skipped -- a hedge must
        never consume the single probe slot of a recovering shard."""
        for shard in self.supervisor.route_preference(key):
            if shard.name == primary.name:
                continue
            breaker = self.breakers.get(shard.name)
            if breaker is None or breaker.state == CLOSED:
                return shard
        return None

    def _check_hedged(self, key: str, primary: ShardProcess,
                      doc: Any, deadline: Deadline | None,
                      ) -> tuple[ShardProcess, int,
                                 dict[str, str], Any]:
        """``POST /v1/check`` with a hedge: when the primary has not
        answered within the p95-derived hedge delay, race the same
        request against a second shard and return whichever answers
        first.

        This is safe precisely because checks are content-addressed
        and idempotent: both shards compute (or coalesce onto) the
        same report for the same fingerprint, so the two answers are
        byte-identical and the loser's work warms the shared
        artifact store instead of being wasted.  Non-idempotent
        paths (``/v1/jobs`` creates client-visible job ids) are
        never hedged."""
        answers: queue.Queue = queue.Queue()

        def fire(shard: ShardProcess, who: str) -> None:
            try:
                out = self.proxy(shard, "POST", "/v1/check", doc,
                                 deadline=deadline)
            except (ShardUnavailable, FrontDeadlineExpired):
                out = None
            answers.put((who, shard, out))

        started = time.monotonic()
        threading.Thread(target=fire, args=(primary, "primary"),
                         daemon=True,
                         name="ppchecker-check-primary").start()
        first = None
        try:
            first = answers.get(timeout=self.latency.hedge_delay())
        except queue.Empty:
            pass

        winner = first if first is not None and first[2] is not None \
            else None
        hedged = False
        if winner is None:
            # the primary is slow (or already failed): race a hedge
            # if a healthy peer exists and the budget allows
            peer = self._hedge_peer(key, primary)
            if peer is not None:
                if (self.retry_budget is not None
                        and not self.retry_budget.try_acquire()):
                    self.metrics.hedges.inc(outcome="suppressed")
                else:
                    hedged = True
                    self.metrics.routed.inc(shard=peer.name)
                    threading.Thread(
                        target=fire, args=(peer, "hedge"),
                        daemon=True,
                        name="ppchecker-check-hedge").start()
            received = 1 if first is not None else 0
            expected = 2 if hedged else 1
            while winner is None and received < expected:
                item = answers.get()
                received += 1
                if item[2] is not None:
                    winner = item
        if winner is None:
            if deadline is not None and deadline.expired:
                raise FrontDeadlineExpired(deadline)
            raise ShardUnavailable(key)
        who, shard, (status, headers, payload) = winner
        if hedged:
            self.metrics.hedges.inc(
                outcome="hedge_won" if who == "hedge"
                else "primary_won")
        self.latency.note(time.monotonic() - started)
        return shard, status, headers, payload

    # -- aggregated endpoints ----------------------------------------------

    def healthz(self) -> dict:
        alive = self.supervisor.alive
        status = "ok" if alive == self.config.shards else "degraded"
        if self.draining:
            status = "draining"
        detail = [{
            "name": shard.name,
            "pid": shard.pid,
            "port": shard.port,
            "alive": shard.alive,
            "restarts": shard.restarts,
        } for shard in self.supervisor.shards]
        return versioned({
            "status": status,
            "version": __version__,
            "role": "front",
            "shards": self.config.shards,
            "shards_alive": alive,
            "workers": self.config.shards * self.config.workers,
            "shard_detail": detail,
            "durable": self.config.state_dir is not None,
        })

    def deadletters(self) -> dict:
        docs: list[dict] = []
        for shard in self.supervisor.shards:
            try:
                status, _, payload = self.proxy(
                    shard, "GET", "/v1/deadletter")
            except ShardUnavailable:
                continue
            if status != 200 or not isinstance(payload, dict):
                continue
            for doc in payload.get("deadletters", ()):
                docs.append(_prefixed(doc, shard.index))
        docs.sort(key=lambda d: (len(d["id"]), d["id"]))
        return versioned({"deadletters": docs, "count": len(docs)})

    def batch(self, bundles: list[Any]) -> tuple[int, dict]:
        """Fan a batch out to the owning shards concurrently and
        merge the answers back into submission order."""
        # group positions by shard up front; the ring only changes
        # if a shard is down *right now*, and proxy() rides out the
        # respawn window for us
        slots: list[dict | None] = [None] * len(bundles)
        groups: dict[int, list[int]] = {}
        unrouted: list[int] = []
        for position, bundle_doc in enumerate(bundles):
            # deadline-blind key + breaker-aware pick: a browned-out
            # shard's documents fail over to the next ring owner.
            # Per-document deadlines travel inline (the reserved
            # ``deadline_s`` field); the shard pops them before
            # parsing, so they never reach its fingerprints either.
            shard = self._pick_shard(_routing_key(bundle_doc))
            if shard is None:
                unrouted.append(position)
                continue
            groups.setdefault(shard.index, []).append(position)

        def run(index: int, positions: list[int]) -> None:
            shard = self.supervisor.shards[index]
            self.metrics.routed.inc(shard=shard.name,
                                    amount=len(positions))
            sub = [bundles[p] for p in positions]
            try:
                status, _, payload = self.proxy(
                    shard, "POST", "/v1/batch", {"bundles": sub})
            except ShardUnavailable:
                for p in positions:
                    slots[p] = {"status": "rejected", "error": {
                        "kind": "shard_unavailable",
                        "message": f"{shard.name} did not recover "
                                   f"within the reroute budget",
                    }}
                return
            results = (payload or {}).get("results", []) \
                if status == 200 and isinstance(payload, dict) else []
            for offset, p in enumerate(positions):
                if offset < len(results):
                    slots[p] = _prefixed(results[offset],
                                         shard.index)
                else:
                    slots[p] = {"status": "rejected", "error": {
                        "kind": "shard_error",
                        "message": f"{shard.name} answered "
                                   f"HTTP {status}",
                    }}

        threads = [threading.Thread(target=run, args=(index, spots))
                   for index, spots in groups.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for p in unrouted:
            slots[p] = {"status": "rejected", "error": {
                "kind": "shard_unavailable",
                "message": "no shard is alive",
            }}
        results = [slot for slot in slots if slot is not None]
        counts: dict[str, int] = {}
        for result in results:
            status = result.get("status", "rejected")
            counts[status] = counts.get(status, 0) + 1
        return 200, versioned({
            "results": results,
            "checked": counts.get("ok", 0),
            "quarantined": counts.get("quarantined", 0),
            "rejected": (counts.get("rejected", 0)
                         + counts.get("invalid", 0)),
            "shed": counts.get("shed", 0),
        })


class _FrontHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int],
                 front: ClusterFront) -> None:
        super().__init__(address, _FrontHandler)
        self.front = front


class ClusterHandle:
    """A running cluster (tests, benchmarks, serve_cluster)."""

    def __init__(self, front: ClusterFront,
                 supervisor: ShardSupervisor,
                 httpd: _FrontHTTPServer,
                 thread: threading.Thread) -> None:
        self.front = front
        self.supervisor = supervisor
        self.httpd = httpd
        self.thread = thread

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    def close(self) -> None:
        """Graceful: 503 new work, drain + SIGTERM the shards, stop
        the listener."""
        self.front.begin_drain()
        self.supervisor.stop()
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(5.0)


def start_cluster(config: ClusterConfig) -> ClusterHandle:
    """Spawn the shards, start the front listener, return a handle.
    ``config.port=0`` binds an ephemeral front port."""
    run_dir = config.state_dir or tempfile.mkdtemp(
        prefix="ppchecker-cluster-")
    os.makedirs(run_dir, exist_ok=True)
    # the alive-gauge callback closes over a cell filled in once the
    # supervisor exists (metrics and supervisor reference each other)
    cell: list[ShardSupervisor] = []
    metrics = FrontMetrics(
        lambda: cell[0].alive if cell else 0)
    supervisor = ShardSupervisor(config, run_dir, metrics)
    cell.append(supervisor)
    front = ClusterFront(config, supervisor, metrics)
    supervisor.start()
    httpd = _FrontHTTPServer((config.host, config.port), front)
    if config.port_file is not None:
        _write_port_file(config.port_file, httpd.server_address[1])
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
        daemon=True, name="ppchecker-front-http")
    thread.start()
    return ClusterHandle(front, supervisor, httpd, thread)


def serve_cluster(config: ClusterConfig) -> int:
    """Blocking ``ppchecker serve --shards N``: run until
    SIGTERM/SIGINT, then drain the whole cluster gracefully."""
    handle = start_cluster(config)
    print(f"ppchecker {__version__} front serving on "
          f"http://{handle.host}:{handle.port} "
          f"({config.shards} shards x {config.workers} workers)",
          flush=True)
    stop = threading.Event()

    def _signal(signum: int, frame: Any) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _signal)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        stop.wait()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    print("draining cluster...", flush=True)
    handle.close()
    print("drained, bye", flush=True)
    return 0


__all__ = [
    "ClusterConfig",
    "ClusterFront",
    "ClusterHandle",
    "FrontDeadlineExpired",
    "FrontMetrics",
    "ShardProcess",
    "ShardSupervisor",
    "ShardUnavailable",
    "serve_cluster",
    "start_cluster",
]
