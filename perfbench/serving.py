"""The serving workloads: ``serve`` and ``serve_sharded``.

A ``ppchecker serve`` subprocess (or ``serve --shards 2``: a front
plus two shard processes) is driven over HTTP by a closed loop of
:data:`CONNECTIONS` persistent keep-alive connections, one thread
each, from this process.  Every connection posts ``/v1/check`` for
the next draw of a seeded Zipf-like stream over the 1,197-app window,
so part of the traffic repeats (completed-job LRU, coalescing) and
part is new.  Connections are never reopened to dodge a slow
keep-alive path: a reconnect only follows a failed request, and
``service.connections_opened`` counts every one.
"""

from __future__ import annotations

import glob
import http.client
import itertools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from common import Context, Result, tail_metric
from layers import CACHES, layer_metrics, read_ndjson
from measure import (
    by_label, merge, metrics_delta, parse_prometheus, reference_seconds,
    samples_for, total, vm_hwm_mb,
)

#: the paper's app window the requests draw from
WINDOW = 1197

#: Zipf exponent of the request draw (rank r has weight 1/(r+1)^s)
ZIPF_S = 1.0

#: persistent connections, one client thread each (= nproc of the
#: 2-CPU reference machine)
CONNECTIONS = 2

#: requests sent after start-up and before the timed phase
WARMUP = 8

#: requests in each pass of a traced run (fixed, so counts repeat)
TRACE_REQUESTS = 400

#: the request stream's length (far beyond any run's needs)
STREAM = 50000

#: successful requests the timed phase collects at least (p99)
P99_SAMPLES = samples_for(99.0)

#: hard cap on the timed phase, seconds
MAX_MEASURE_S = 90.0

#: per-request socket timeout, seconds; a timeout is a failure
REQUEST_TIMEOUT = 60.0

#: set-up repetitions; ``setup_s`` is their median
SETUP_REPEATS = 5

#: the pipeline stages that run at the top of a check; the lib-policy
#: stage runs inside ``detect`` and is not added again
TOP_STAGES = ("policy_analysis", "static_analysis",
              "description_permissions", "detect")

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launch.py")


# -- the request stream -----------------------------------------------------


def request_stream(seed: int, length: int = STREAM):
    """``(spec, [app index, ...])``: a seeded Zipf-like draw over the
    window's apps that can travel as JSON (packed APKs cannot)."""
    from repro.corpus.appstore import CorpusSpec

    spec = CorpusSpec(seed=seed, n_apps=WINDOW)
    eligible = [i for i in range(WINDOW) if not spec.plan(i).packed]
    rng = random.Random(f"serve:{seed}")
    rng.shuffle(eligible)
    weights = itertools.accumulate(
        1.0 / (rank + 1) ** ZIPF_S for rank in range(len(eligible)))
    return spec, rng.choices(eligible, cum_weights=list(weights),
                             k=length)


class Bodies:
    """Request bodies (``bundle_to_dict`` JSON) per app index, built
    on first use and kept."""

    def __init__(self, spec) -> None:
        self.spec = spec
        self._docs: dict[int, bytes] = {}
        self._lock = threading.Lock()

    def get(self, index: int) -> bytes:
        body = self._docs.get(index)
        if body is None:
            from repro.android.serialization import bundle_to_dict

            body = json.dumps(bundle_to_dict(
                self.spec.app(index).bundle)).encode("utf-8")
            with self._lock:
                self._docs[index] = body
        return body


# -- processes ---------------------------------------------------------------

_LIVE: list["Server"] = []


class Server:
    """One spawned ``serve`` process group (a front's shards share
    it).  :meth:`stop` ends the whole group and waits for it."""

    def __init__(self, ctx: Context, sharded: bool, tag: str,
                 dump: str | None = None) -> None:
        self.ctx = ctx
        work = ctx.fresh_dir(tag)
        self.port_file = os.path.join(work, "port")
        args = ["serve", "--host", "127.0.0.1", "--port", "0",
                "--port-file", self.port_file]
        if sharded:
            args += ["--shards", "2", "--workers", "1",
                     "--state-dir", os.path.join(work, "state")]
        else:
            args += ["--workers", "2"]
        if dump is None:
            self.cmd = [sys.executable, "-m", "repro.cli"] + args
        else:
            self.cmd = [sys.executable, LAUNCHER, "--dump", dump,
                        "--"] + args
        self.log_path = os.path.join(work, "serve.log")
        self.process: subprocess.Popen | None = None
        self.port = 0
        self.start_s = 0.0

    def start(self, timeout: float = 60.0) -> None:
        """Spawn and wait until ``/healthz`` reports ok; ``start_s``
        is that wait, spawn included."""
        started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                self.cmd, stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True)
        _LIVE.append(self)
        deadline = started + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"serve exited with {self.process.returncode}; "
                    f"see {self.log_path}")
            if time.perf_counter() > deadline:
                raise RuntimeError("serve did not become healthy")
            if not self.port:
                try:
                    with open(self.port_file, encoding="ascii") as fh:
                        self.port = int(fh.read().strip() or 0)
                except (OSError, ValueError):
                    pass
            if self.port:
                try:
                    if self.healthz().get("status") == "ok":
                        break
                except (OSError, http.client.HTTPException, ValueError):
                    pass
            time.sleep(0.01)
        self.start_s = time.perf_counter() - started

    def get(self, path: str, port: int | None = None) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", port or self.port,
                                          timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path}: {response.status}")
            return body
        finally:
            conn.close()

    def healthz(self) -> dict:
        return json.loads(self.get("/healthz"))

    def pids_and_ports(self) -> tuple[list[int], list[int]]:
        """The serving processes' pids and the ports whose
        ``/metrics`` carry pipeline counters (the shards behind a
        front, else the server itself)."""
        detail = self.healthz().get("shard_detail")
        if not detail:
            return [self.process.pid], [self.port]
        return ([self.process.pid] + [row["pid"] for row in detail],
                [row["port"] for row in detail])

    def scrape(self) -> tuple[dict, dict]:
        """``(front samples, summed pipeline-process samples)``; for a
        single server both are its own ``/metrics``."""
        _, ports = self.pids_and_ports()
        own = parse_prometheus(self.get("/metrics").decode())
        if ports == [self.port]:
            return own, own
        return own, merge(*(parse_prometheus(
            self.get("/metrics", port).decode()) for port in ports))

    def peak_rss_mb(self) -> float:
        pids, _ = self.pids_and_ports()
        return sum(vm_hwm_mb(pid) for pid in pids)

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM the leader (it drains and stops its shards), then
        SIGKILL whatever is left of the group; wait for all of it."""
        process = self.process
        if process is None:
            return
        self.process = None
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(timeout)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            _kill_group(process)
            if self in _LIVE:
                _LIVE.remove(self)


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:  # orphaned shards keep the group alive until they die
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.02)


def stop_all() -> None:
    """Stop every server still running (every exit path calls it)."""
    for server in list(_LIVE):
        server.stop(timeout=5.0)


# -- the closed-loop client ---------------------------------------------------


class _Connection(http.client.HTTPConnection):
    def __init__(self, port: int, opened) -> None:
        super().__init__("127.0.0.1", port, timeout=REQUEST_TIMEOUT)
        self._opened = opened

    def connect(self) -> None:
        super().connect()
        self._opened()


@dataclass
class Phase:
    """What the client saw during one phase."""

    latencies: list[float] = field(default_factory=list)
    ok_latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    request_bytes: int = 0
    response_bytes: int = 0
    elapsed: float = 0.0
    bodies: dict[int, set[bytes]] = field(default_factory=dict)


class Client:
    """:data:`CONNECTIONS` keep-alive connections walking one shared
    request stream; a thread takes the next draw only after its
    previous reply arrived."""

    def __init__(self, port: int, stream: list[int],
                 bodies: Bodies) -> None:
        self.stream = stream
        self.bodies = bodies
        self.cursor = 0
        self.opened = 0
        self._lock = threading.Lock()
        self._conns = [_Connection(port, self._on_open)
                       for _ in range(CONNECTIONS)]

    def _on_open(self) -> None:
        with self._lock:
            self.opened += 1

    def close(self) -> None:
        for conn in self._conns:
            conn.close()

    def run(self, count: int | None = None, seconds: float = 0.0,
            min_ok: int = 0) -> Phase:
        """Send *count* requests, or keep sending until *seconds*
        passed and *min_ok* succeeded (capped at
        :data:`MAX_MEASURE_S`)."""
        phase = Phase()
        stop_at = None if count is None else self.cursor + count
        started = time.perf_counter()

        def next_index() -> int | None:
            with self._lock:
                if stop_at is not None:
                    if self.cursor >= stop_at:
                        return None
                else:
                    waited = time.perf_counter() - started
                    if waited >= MAX_MEASURE_S or (
                            waited >= seconds
                            and len(phase.ok_latencies) >= min_ok):
                        return None
                i = self.cursor
                self.cursor += 1
                return i

        def worker(conn: _Connection) -> None:
            while (i := next_index()) is not None:
                index = self.stream[i]
                body = self.bodies.get(index)
                sent = time.perf_counter()
                try:
                    conn.request("POST", "/v1/check", body=body,
                                 headers={"Content-Type":
                                          "application/json"})
                    response = conn.getresponse()
                    payload = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    conn.close()
                    status, payload = 0, b""
                lap = time.perf_counter() - sent
                with self._lock:
                    phase.attempted += 1
                    phase.request_bytes += len(body)
                    phase.response_bytes += len(payload)
                    if status == 200:
                        phase.latencies.append(lap)
                        phase.ok_latencies.append(lap)
                        phase.bodies.setdefault(index, set()).add(payload)
                    else:
                        # a failure misses any latency limit
                        phase.failed += 1
                        phase.latencies.append(REQUEST_TIMEOUT)

        threads = [threading.Thread(target=worker, args=(conn,))
                   for conn in self._conns]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.elapsed = time.perf_counter() - started
        return phase


# -- output checks ------------------------------------------------------------


def check_bodies(result: Result, spec, bodies: Bodies,
                 seen: dict[int, set[bytes]]) -> None:
    """Every 200 body must equal the in-process ``check --json``
    payload for the same bundle."""
    from repro import PPChecker
    from repro.android.serialization import bundle_from_dict
    from repro.core.schema import versioned

    checker = PPChecker(lib_policy_source=spec.lib_policy)
    wrong = 0
    for index, payloads in seen.items():
        bundle = bundle_from_dict(json.loads(bodies.get(index)))
        want = json.loads(json.dumps(
            versioned(checker.check(bundle).to_dict())))
        wrong += sum(1 for payload in payloads
                     if json.loads(payload) != want)
    if wrong:
        result.fail(f"{wrong} response bodies differ from the "
                    f"in-process check --json payload")


# -- the workloads ------------------------------------------------------------


def serve(ctx: Context) -> Result:
    return _serve(ctx, sharded=False)


def serve_sharded(ctx: Context) -> Result:
    return _serve(ctx, sharded=True)


def _serve(ctx: Context, sharded: bool) -> Result:
    result = Result()
    spec, stream = request_stream(ctx.seed)
    bodies = Bodies(spec)
    if ctx.trace:
        return _serve_traced(ctx, result, spec, stream, bodies, sharded)
    for index in set(stream[:WARMUP + 2 * P99_SAMPLES]):
        bodies.get(index)
    servers: list[Server] = []
    tags = itertools.count()

    def spawn() -> float:
        for previous in servers:
            previous.stop()
        servers[:] = [Server(ctx, sharded, f"serve-{next(tags)}")]
        servers[0].start()
        return servers[0].start_s

    setup = reference_seconds(spawn, SETUP_REPEATS)
    server = servers[0]
    client = Client(server.port, stream, bodies)
    try:
        warm = client.run(count=WARMUP)
        front0, shards0 = server.scrape()
        phase = client.run(seconds=ctx.seconds, min_ok=P99_SAMPLES)
        front1, shards1 = server.scrape()
        rss = server.peak_rss_mb()
    finally:
        client.close()
        server.stop()
    result.attempted = warm.attempted + phase.attempted
    result.failed = warm.failed + phase.failed
    seen = warm.bodies
    for index, payloads in phase.bodies.items():
        seen.setdefault(index, set()).update(payloads)
    check_bodies(result, spec, bodies, seen)
    # the stall the serve workloads show is a timer, not CPU work: the
    # latencies are wall-clock, not reference-CPU time
    result.metrics["apps_per_s"] = (
        len(phase.ok_latencies) / phase.elapsed, "1/s")
    result.metrics["p50_ms"] = (
        statistics.median(phase.latencies) * 1000.0, "ms")
    result.metrics.update(tail_metric(phase.latencies, ctx))
    result.metrics["setup_s"] = (setup, "s")
    result.metrics["peak_rss_mb"] = (rss, "MiB")
    service = service_metrics(phase, metrics_delta(front0, front1),
                              metrics_delta(shards0, shards1),
                              client.opened, sharded)
    ctx.note(f"{ctx.workload}: {phase.attempted} requests in "
             f"{phase.elapsed:.2f} s over {client.opened} connections; "
             f"repeat share {service['service.repeat_ratio'][0]:.3f}")
    return result


def _serve_traced(ctx: Context, result: Result, spec, stream: list[int],
                  bodies: Bodies, sharded: bool) -> Result:
    """:data:`TRACE_REQUESTS` requests against a plain server, then
    the same requests against one started through the tracing
    launcher; the per-layer numbers come from the second."""
    for index in set(stream[:TRACE_REQUESTS]):
        bodies.get(index)
    plain = Server(ctx, sharded, "serve-plain")
    plain.start()
    client = Client(plain.port, stream, bodies)
    try:
        untraced = client.run(count=TRACE_REQUESTS)
    finally:
        client.close()
        plain.stop()
    for path in _trace_files(ctx):
        os.unlink(path)
    server = Server(ctx, sharded, "serve-traced", dump=ctx.trace_path())
    server.start()
    client = Client(server.port, stream, bodies)
    try:
        front0, shards0 = server.scrape()
        phase = client.run(count=TRACE_REQUESTS)
        front1, shards1 = server.scrape()
    finally:
        client.close()
        server.stop(timeout=60.0)
    result.attempted = phase.attempted
    result.failed = phase.failed
    check_bodies(result, spec, bodies, phase.bodies)
    # one trace per process: the server, or the front and each shard
    paths = _trace_files(ctx)
    if len(paths) != (3 if sharded else 1):
        raise RuntimeError(f"expected a trace per server process, found "
                           f"{paths}")
    spans: list = []
    counts: Counter[str] = Counter()
    for path in paths:
        more, more_counts = read_ndjson(path)
        spans += more
        counts.update(more_counts)
    ctx.note(f"spans: {len(spans)} from {len(paths)} processes")
    shards = metrics_delta(shards0, shards1)
    caches = {name: (total(shards, "ppchecker_nlp_cache_hits", cache=name),
                     total(shards, "ppchecker_nlp_cache_misses",
                           cache=name))
              for name in CACHES}
    ok = len(phase.ok_latencies)
    result.metrics.update(layer_metrics(spans, counts, caches, ok))
    result.metrics.update(service_metrics(
        phase, metrics_delta(front0, front1), shards, client.opened,
        sharded))
    result.metrics["trace.overhead_ratio"] = (
        phase.elapsed / untraced.elapsed, "ratio")
    return result


#: the serving layers' metrics and units; an in-process workload has
#: no HTTP edge, front or journal, and reports each as 0
SERVICE_UNITS = {
    "service.stage_ms_per_request": "ms",
    "service.outside_pipeline_ms_per_request": "ms",
    "service.repeat_ratio": "ratio",
    "service.jobs_executed": "count",
    "service.request_kb": "KiB",
    "service.response_kb": "KiB",
    "service.connections_opened": "count",
    "front.outside_pipeline_ms_per_request": "ms",
    "front.shard_skew": "ratio",
    "front.hedges": "count",
    "front.reroutes": "count",
    "durability.journal_records_per_request": "count",
    "durability.journal_bytes_per_request": "B",
}


def idle_service_metrics() -> dict[str, tuple[float, str]]:
    return {name: (0.0, unit) for name, unit in SERVICE_UNITS.items()}


def _trace_files(ctx: Context) -> list[str]:
    """This run's trace files: the server's, and one per shard."""
    return sorted(path for path in [ctx.trace_path()]
                  + glob.glob(ctx.trace_path("-*"))
                  if os.path.exists(path))


def service_metrics(phase: Phase, front: dict, shards: dict,
                    opened: int, sharded: bool
                    ) -> dict[str, tuple[float, str]]:
    """The service, front and durability layer metrics of a phase,
    from the client's view and the ``/metrics`` deltas."""
    ok = len(phase.ok_latencies) or 1
    stage_s = sum(total(shards, "ppchecker_stage_latency_seconds_sum",
                        stage=stage) for stage in TOP_STAGES)
    stage_ms = stage_s * 1000.0 / ok
    outside_ms = statistics.fmean(phase.ok_latencies) * 1000.0 - stage_ms
    out = idle_service_metrics()
    out.update({
        "service.stage_ms_per_request": (stage_ms, "ms"),
        "service.outside_pipeline_ms_per_request": (outside_ms, "ms"),
        "service.repeat_ratio": (
            total(shards, "ppchecker_jobs_coalesced_total") / ok, "ratio"),
        "service.jobs_executed": (
            total(shards, "ppchecker_jobs_total"), "count"),
        "service.request_kb": (phase.request_bytes / 1024.0
                               / phase.attempted, "KiB"),
        "service.response_kb": (phase.response_bytes / 1024.0
                                / phase.attempted, "KiB"),
        "service.connections_opened": (opened, "count"),
        "durability.journal_records_per_request": (
            total(shards, "ppchecker_journal_records_total") / ok,
            "count"),
        "durability.journal_bytes_per_request": (
            total(shards, "ppchecker_journal_size_bytes") / ok, "B"),
    })
    if sharded:
        routed = list(by_label(front, "ppchecker_routed_total",
                               "shard").values())
        out["front.outside_pipeline_ms_per_request"] = (outside_ms, "ms")
        out["front.shard_skew"] = (
            max(routed) / statistics.fmean(routed) if routed else 0.0,
            "ratio")
        out["front.hedges"] = (total(front, "ppchecker_hedges_total"),
                               "count")
        out["front.reroutes"] = (total(front, "ppchecker_reroutes_total"),
                                 "count")
    return out
