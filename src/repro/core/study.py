"""The 1,197-app study (Section V): run PPChecker over the corpus and
aggregate the numbers behind every table and figure.

:func:`run_study_streaming` folds every checked app into a
:class:`StudyAggregate` exposing:

- Table III: permission -> count of description-incomplete apps,
- Fig. 13: distribution of missed information (code path),
- Section V-D: incorrect-policy counts,
- Table IV: inconsistency TP/FP/precision/recall/F1 per sentence row,
- Section V-F: the summary (apps with at least one problem).

Ground-truth labels come from the corpus plans, so precision and
recall are exact rather than sampled.  The fold keeps no per-app
reports; a :class:`ReportCollector` sink keeps them for the consumers
that need them.
"""

from __future__ import annotations

import resource
import time
from collections import Counter, deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Protocol

from repro.core.checker import PPChecker
from repro.core.report import AppFailure, AppReport
from repro.corpus.appstore import CorpusSpec
from repro.corpus.plans import AppPlan
from repro.pipeline.artifacts import PipelineStats
from repro.policy.verbs import VerbCategory
from repro.semantics.resources import InfoType


@dataclass
class RowMetrics:
    """One Table IV row."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def flagged(self) -> int:
        return self.tp + self.fp

    @property
    def precision(self) -> float:
        return self.tp / self.flagged if self.flagged else 0.0

    @property
    def recall(self) -> float:
        actual = self.tp + self.fn
        return self.tp / actual if actual else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


#: the paper's published evaluation numbers (Section V).
PAPER_RESULTS: dict[str, int | float] = {
    "apps": 1197,
    "problem_apps": 282,
    "problem_fraction": 0.236,
    "incomplete_apps": 222,
    "incomplete_via_description": 64,
    "incomplete_via_code": 180,
    "incorrect_apps": 4,
    "incorrect_via_description": 2,
    "incorrect_via_code": 4,
    "inconsistent_apps": 75,
}


# ---------------------------------------------------------------------------
# the study engine
# ---------------------------------------------------------------------------


def _telemetry(started: float, apps: int) -> dict[str, float | int]:
    """Run telemetry: process high-water RSS plus throughput."""
    elapsed = time.perf_counter() - started
    return {
        "peak_rss_kb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss,
        "apps_per_sec": apps / elapsed if elapsed > 0 else 0.0,
        "elapsed_s": elapsed,
    }


class ResultSink(Protocol):
    """Anything that wants every finished outcome, in index order
    (e.g. :class:`repro.core.results.ShardedResultWriter`)."""

    def emit(self, index: int, key: str,
             outcome: AppReport | AppFailure) -> None: ...


class ReportCollector:
    """A :class:`ResultSink` that keeps every finished report, keyed
    by package in index order -- for the consumers that need per-app
    reports (``study --html``, ``screen``).  Quarantined apps are not
    kept here; they stay on :attr:`StudyAggregate.failures`."""

    def __init__(self) -> None:
        self.reports: dict[str, AppReport] = {}

    def emit(self, index: int, key: str,
             outcome: AppReport | AppFailure) -> None:
        if not isinstance(outcome, AppFailure):
            self.reports[key] = outcome


@dataclass
class StudyAggregate:
    """The study's tables, folded one app at a time.

    Holds counters instead of per-app reports, so its size is
    independent of the corpus: a million-app run folds into the same
    few hundred bytes as the paper's 1,197.  Every table decomposes
    into per-app increments, and :meth:`fold` applies exactly those
    increments; ``tests/integration/goldens/study_320.json`` pins
    ``to_dict()`` to the answer of a set-based recomputation over the
    full reports.
    """

    n_apps: int = 0
    checked: int = 0
    _table3: Counter[str] = field(default_factory=Counter)
    _fig13: Counter[InfoType] = field(default_factory=Counter)
    _fig13_retained: int = 0
    _code_tp: int = 0
    _code_fp: int = 0
    _rows: dict[str, RowMetrics] = field(default_factory=lambda: {
        "collect_use_retain": RowMetrics(), "disclose": RowMetrics()})
    _summary: Counter[str] = field(default_factory=Counter)
    failures: dict[str, AppFailure] = field(default_factory=dict)
    stats: PipelineStats | None = field(default=None, repr=False,
                                        compare=False)
    telemetry: dict[str, float | int] | None = field(
        default=None, repr=False, compare=False)

    # -- the fold ----------------------------------------------------------

    def fold(self, plan: AppPlan,
             outcome: AppReport | AppFailure) -> None:
        """Account one finished app."""
        self.n_apps += 1
        if isinstance(outcome, AppFailure):
            self.failures[plan.package] = outcome
            return
        report = outcome
        self.checked += 1

        desc_findings = report.incomplete_via("description")
        for permission in {f.permission for f in desc_findings}:
            self._table3[permission] += 1
        desc_tp = bool(desc_findings) and plan.gt_incomplete_desc

        code_findings = report.incomplete_via("code")
        code_tp = False
        if code_findings:
            if plan.gt_incomplete_code:
                code_tp = True
                self._code_tp += 1
                for finding in code_findings:
                    self._fig13[finding.info] += 1
                    if finding.retained:
                        self._fig13_retained += 1
            else:
                self._code_fp += 1

        incorrect_tp = bool(report.incorrect) and plan.gt_incorrect

        det_cur = any(f.category is not VerbCategory.DISCLOSE
                      for f in report.inconsistent)
        det_d = any(f.category is VerbCategory.DISCLOSE
                    for f in report.inconsistent)
        for row, detected, truth in (
            ("collect_use_retain", det_cur, plan.gt_inconsistent_cur),
            ("disclose", det_d, plan.gt_inconsistent_d),
        ):
            metrics = self._rows[row]
            if detected and truth:
                metrics.tp += 1
            elif detected and not truth:
                metrics.fp += 1
            elif not detected and truth:
                metrics.fn += 1
        inconsistent_tp = (det_cur and plan.gt_inconsistent_cur) or (
            det_d and plan.gt_inconsistent_d)

        summary = self._summary
        if desc_tp:
            summary["incomplete_via_description"] += 1
        if code_tp:
            summary["incomplete_via_code"] += 1
        if desc_tp or code_tp:
            summary["incomplete_apps"] += 1
        if incorrect_tp:
            summary["incorrect_apps"] += 1
        if report.incorrect_via("description") and plan.gt_incorrect:
            summary["incorrect_via_description"] += 1
        if report.incorrect_via("code") and plan.gt_incorrect:
            summary["incorrect_via_code"] += 1
        if inconsistent_tp:
            summary["inconsistent_apps"] += 1
        if desc_tp or code_tp or incorrect_tp or inconsistent_tp:
            summary["problem_apps"] += 1

    # -- table views -------------------------------------------------------

    def table3(self) -> dict[str, int]:
        return dict(self._table3)

    def fig13(self) -> tuple[Counter[InfoType], int]:
        return self._fig13, self._fig13_retained

    def incomplete_code_confusion(self) -> tuple[int, int]:
        return self._code_tp, self._code_fp

    def table4(self) -> dict[str, RowMetrics]:
        return self._rows

    def summary(self) -> dict[str, int | float]:
        problems = self._summary
        return {
            "apps": self.n_apps,
            "problem_apps": problems["problem_apps"],
            "problem_fraction": problems["problem_apps"] / self.n_apps
            if self.n_apps else 0.0,
            "incomplete_apps": problems["incomplete_apps"],
            "incomplete_via_description":
                problems["incomplete_via_description"],
            "incomplete_via_code": problems["incomplete_via_code"],
            "incorrect_apps": problems["incorrect_apps"],
            "incorrect_via_description":
                problems["incorrect_via_description"],
            "incorrect_via_code": problems["incorrect_via_code"],
            "inconsistent_apps": problems["inconsistent_apps"],
            "quarantined_apps": len(self.failures),
        }

    def to_dict(self) -> dict:
        dist, retained = self.fig13()
        return {
            "summary": self.summary(),
            "table3": self.table3(),
            "fig13": {
                info.value: count for info, count in dist.items()
            },
            "fig13_retained": retained,
            "table4": {
                name: {"tp": row.tp, "fp": row.fp, "fn": row.fn,
                       "precision": row.precision,
                       "recall": row.recall, "f1": row.f1}
                for name, row in self.table4().items()
            },
            "quarantine": [
                self.failures[pkg].to_dict()
                for pkg in sorted(self.failures)
            ],
        }

    def deviations_from_paper(self) -> dict[str, tuple]:
        summary = self.summary()
        out: dict[str, tuple] = {}
        for key, paper_value in PAPER_RESULTS.items():
            measured = summary.get(key)
            if measured is None:
                continue
            if isinstance(paper_value, float):
                if abs(measured - paper_value) > 0.002:
                    out[key] = (paper_value, measured)
            elif measured != paper_value:
                out[key] = (paper_value, measured)
        return out


def run_study_streaming(
    spec: CorpusSpec,
    checker: PPChecker | None = None,
    limit: int | None = None,
    workers: int = 1,
    window: int | None = None,
    keep_going: bool = True,
    skip: dict[str, AppReport | AppFailure] | None = None,
    on_outcome: Callable[[str, AppReport | AppFailure],
                         None] | None = None,
    sinks: Iterable[ResultSink] = (),
    shards: int = 0,
    shard_options: "ShardOptions | None" = None,
) -> StudyAggregate:
    """The study as a bounded-memory stream over a lazy corpus.

    Apps are derived from *spec* one index at a time, pushed through
    the checker with at most *window* apps in flight (default
    ``4 * workers``), and folded straight into a
    :class:`StudyAggregate` -- peak RSS is set by the window, not by
    ``len(spec)``.  *limit* checks only the first *limit* apps of the
    unchanged corpus.  Outcomes are drained and folded **in index
    order** regardless of worker completion order, so every sink
    (e.g. the sharded NDJSON writer, a :class:`ReportCollector`) sees
    a deterministic emission sequence and reruns are byte-identical.

    With ``keep_going`` (the default) an app whose check fails is
    quarantined on ``aggregate.failures``; ``keep_going=False``
    re-raises the first failure in index order.

    ``skip`` maps package -> an already-known outcome (replayed from
    a journal by ``study --resume``): folded and emitted to sinks,
    but never re-checked.  ``on_outcome`` observes every *freshly
    computed* outcome as ``(package, outcome)``, in index order --
    the durability layer's checkpoint hook; it never fires for
    skipped apps.  Together they make a resumed run reproduce the
    uninterrupted run's tables and result shards byte-for-byte.

    The per-app checks run on one of two planes, each a source of
    fresh outcomes in index order feeding the same fold loop: a
    thread pool of *workers* over *checker* (the default), or, with
    ``shards > 0``, the consistent-hash *process* plane
    (:class:`ShardPool`), where *checker*/*workers* are ignored and
    *shard_options* carries the pipeline flags each worker process
    rebuilds its checker from.  The aggregates and result shards are
    byte-identical across planes, worker and shard counts.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    started = time.perf_counter()
    total = len(spec) if limit is None else min(limit, len(spec))
    skip = skip or {}
    sinks = tuple(sinks)
    aggregate = StudyAggregate()
    with ExitStack() as stack:
        if shards > 0:
            pool = stack.enter_context(ShardPool(
                spec, shards=shards, total=total, skip=set(skip),
                options=shard_options, keep_going=keep_going,
                window=32 if window is None else window))
            fresh = pool.outcomes()
        else:
            if checker is None:
                checker = PPChecker(lib_policy_source=spec.lib_policy)
            workers = max(1, workers)
            window = max(4 * workers if window is None else window,
                         workers)
            fresh = stack.enter_context(closing(_thread_outcomes(
                spec, checker, total, skip, workers, window,
                keep_going)))
        for index in range(total):
            plan = spec.plan(index)
            if plan.package in skip:
                outcome = skip[plan.package]
            else:
                _, outcome = next(fresh)
                if on_outcome is not None:
                    on_outcome(plan.package, outcome)
            aggregate.fold(plan, outcome)
            for sink in sinks:
                sink.emit(index, plan.package, outcome)
        aggregate.stats = pool.finish() if shards > 0 else checker.stats
    aggregate.telemetry = _telemetry(started, total)
    return aggregate


def _thread_outcomes(
    spec: CorpusSpec, checker: PPChecker, total: int,
    skip: dict[str, AppReport | AppFailure], workers: int,
    window: int, keep_going: bool,
) -> Iterator[tuple[int, AppReport | AppFailure]]:
    """The in-process plane: yield ``(index, outcome)`` for every
    fresh (non-skipped) index below *total*, ascending, with at most
    *window* checks in flight on *workers* threads (inline for one)."""

    def check(index: int) -> tuple[int, AppReport | AppFailure]:
        try:
            return index, checker.check(spec.app(index).bundle)
        except Exception as exc:
            if not keep_going:
                raise
            return index, AppFailure.from_exception(
                spec.package_for(index), exc)

    fresh = (index for index in range(total)
             if spec.package_for(index) not in skip)
    if workers == 1:
        yield from map(check, fresh)
        return
    pending: deque[Future] = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for index in fresh:
            pending.append(pool.submit(check, index))
            if len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def merge_study_results(out_dir: str) -> StudyAggregate:
    """Reconstitute the study tables from a finalized shard
    directory (see :mod:`repro.core.results`).

    Plans are re-derived lazily from the corpus identity stamped in
    the shard headers, so the merge -- like the run that produced the
    shards -- never materializes the corpus.
    """
    from repro.core import results

    meta = results.read_meta(out_dir)
    if meta is None:
        raise results.ResultShardError(
            f"{out_dir}: no finalized result shards")
    spec = CorpusSpec(seed=meta["seed"], n_apps=meta["apps"])
    expected = meta.get("limit")
    expected = len(spec) if expected is None else min(expected,
                                                     len(spec))
    aggregate = StudyAggregate()
    for index, _key, outcome in results.iter_results(out_dir):
        aggregate.fold(spec.plan(index), outcome)
    if aggregate.n_apps != expected:
        raise results.ResultShardError(
            f"{out_dir}: shards hold {aggregate.n_apps} outcomes "
            f"but the run meta promises {expected} -- partial run?")
    return aggregate


# ---------------------------------------------------------------------------
# sharded execution (the process worker plane)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardOptions:
    """Pipeline construction parameters the study's worker processes
    need on their side of the spawn boundary.

    The parent never ships a checker across -- each worker rebuilds
    its own from these primitives, which is also what keeps the
    sharded study byte-identical to the single-process one: the same
    flags produce the same pipeline.
    """

    #: artifact cache directory shared by every shard (``None``
    #: disables the disk tier)
    cache_dir: str | None = None
    #: ``"json"`` (one file per artifact) or ``"sqlite"`` (the
    #: cross-process :class:`repro.pipeline.artifacts.SharedDiskStore`)
    store_backend: str = "json"
    max_retries: int = 0
    stage_timeout: float | None = None
    #: path to a JSON fault plan (see :mod:`repro.pipeline.faults`)
    fault_plan: str | None = None


def _shard_worker_main(shard: int, shards: int, seed: int, n_apps: int,
                       total: int, skip: frozenset,
                       options: ShardOptions, keep_going: bool,
                       out_queue) -> None:
    """Worker process: check every corpus index whose package the hash
    ring assigns to shard *shard*, in ascending index order, streaming
    ``("outcome", index, outcome)`` records back.  Always ends with a
    ``("stats", snapshot)`` record so the parent can merge pipeline
    counters."""
    from repro.pipeline.artifacts import build_store
    from repro.pipeline.faults import FaultPlan
    from repro.pipeline.resilience import RetryPolicy
    from repro.service.hashring import ring_for, shard_name

    spec = CorpusSpec(seed=seed, n_apps=n_apps)
    ring = ring_for(shards)
    mine = shard_name(shard)
    fault_plan = (FaultPlan.from_json_file(options.fault_plan)
                  if options.fault_plan is not None else None)
    checker = PPChecker(
        lib_policy_source=spec.lib_policy,
        artifact_store=build_store(cache_dir=options.cache_dir,
                                   backend=options.store_backend),
        retry_policy=RetryPolicy(max_retries=options.max_retries,
                                 stage_timeout=options.stage_timeout),
        fault_plan=fault_plan,
    )
    try:
        for index in range(total):
            if ring.place(spec.package_for(index)) != mine:
                continue
            plan = spec.plan(index)
            if plan.package in skip:
                continue
            try:
                outcome = checker.check(spec.app(index).bundle)
            except Exception as exc:
                if not keep_going:
                    try:
                        out_queue.put(("fatal", index, exc))
                    except Exception:
                        out_queue.put(("fatal", index, RuntimeError(
                            f"{type(exc).__name__}: {exc}")))
                    return
                outcome = AppFailure.from_exception(plan.package, exc)
            out_queue.put(("outcome", index, outcome))
    finally:
        out_queue.put(("stats", checker.stats.snapshot()))


class ShardPool:
    """The study's process worker plane -- the same consistent-hash
    assignment as ``serve --shards N``, driven directly.

    *shards* spawn processes each own the corpus indices whose
    package name the service hash ring
    (:func:`repro.service.hashring.ring_for`) places on their shard
    name.  The parent drains outcomes in **global index order**:
    every index belongs to exactly one shard and each shard emits its
    indices ascending, so the head of the owner's queue is always the
    next outcome.  Per-shard queues are bounded by *window*, so a
    fast shard blocks instead of buffering unboundedly -- peak parent
    memory is ``shards * window`` outcomes, never the corpus.
    """

    def __init__(self, spec: CorpusSpec, shards: int, total: int,
                 skip: frozenset | set = frozenset(),
                 options: ShardOptions | None = None,
                 keep_going: bool = True, window: int = 32):
        import multiprocessing

        from repro.service.hashring import ring_for, shard_name

        self.spec = spec
        self.shards = max(1, min(shards, max(total, 1)))
        self.total = total
        self.skip = frozenset(skip)
        self.ring = ring_for(self.shards)
        self._owner_index = {shard_name(i): i
                             for i in range(self.shards)}
        options = options or ShardOptions()
        ctx = multiprocessing.get_context("spawn")
        self.queues = [ctx.Queue(maxsize=max(1, window))
                       for _ in range(self.shards)]
        self.processes = [
            ctx.Process(
                target=_shard_worker_main,
                args=(index, self.shards, spec.seed, spec.n_apps,
                      total, self.skip, options, keep_going,
                      self.queues[index]),
                daemon=True,
            )
            for index in range(self.shards)
        ]

    def __enter__(self) -> "ShardPool":
        for process in self.processes:
            process.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _next(self, shard: int):
        """The next record from *shard*, raising instead of hanging
        forever if its process died mid-run (e.g. SIGKILL)."""
        import queue as queue_module

        while True:
            try:
                return self.queues[shard].get(timeout=1.0)
            except queue_module.Empty:
                process = self.processes[shard]
                if not process.is_alive():
                    raise RuntimeError(
                        f"study shard {shard} died (exit code "
                        f"{process.exitcode}) before finishing its "
                        f"indices; rerun with --journal/--resume to "
                        f"replay the finished apps") from None

    def outcomes(self) -> "Iterable[tuple[int, AppReport | AppFailure]]":
        """Yield ``(index, outcome)`` for every fresh (non-skipped)
        index, in ascending index order."""
        for index in range(self.total):
            package = self.spec.package_for(index)
            if package in self.skip:
                continue
            shard = self._owner_index[self.ring.place(package)]
            record = self._next(shard)
            kind = record[0]
            if kind == "fatal":
                error = record[2]
                if isinstance(error, BaseException):
                    raise error
                raise RuntimeError(str(error))
            if kind != "outcome" or record[1] != index:
                raise RuntimeError(
                    f"study shard {shard} broke protocol: expected "
                    f"outcome {index}, got {kind!r} "
                    f"{record[1] if len(record) > 1 else None!r}")
            yield index, record[2]

    def finish(self) -> PipelineStats:
        """Collect each shard's trailing stats record and merge the
        per-stage counters; call after :meth:`outcomes` is drained."""
        merged = PipelineStats()
        for shard in range(self.shards):
            record = self._next(shard)
            if record[0] != "stats":
                raise RuntimeError(
                    f"study shard {shard} broke protocol: expected "
                    f"stats, got {record[0]!r}")
            for name, row in record[1].items():
                stage = merged.stage(name)
                stage.executions += row["executions"]
                stage.cache_hits += row["cache_hits"]
                stage.failures += row["failures"]
                stage.seconds += row["seconds"]
        return merged

    def close(self) -> None:
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        for process in self.processes:
            process.join(timeout=10.0)
        for queue in self.queues:
            queue.close()
            queue.cancel_join_thread()


__all__ = ["RowMetrics", "StudyAggregate", "ResultSink",
           "ReportCollector", "ShardOptions", "ShardPool",
           "PAPER_RESULTS", "run_study_streaming",
           "merge_study_results"]
