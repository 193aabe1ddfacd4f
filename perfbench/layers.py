"""Per-layer spans and counts, recorded from outside the program.

:class:`Tracer` wraps each layer's public entry points -- patched
where their callers look them up -- with a function that records a
span ``(id, parent, name, start, duration)`` on a per-thread stack and
bumps named counters.  Spans stay in memory; :meth:`Tracer.write_ndjson`
writes them out when the run ends.  Nothing under ``src/`` knows about
it: uninstalling restores every original.

:func:`layer_metrics` turns spans, counters, memo-cache deltas and the
number of checks into the ``per_layer`` metrics.  A layer's self time
is its spans' duration minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable

#: the five pipeline stages, in execution order
STAGES = ("policy_analysis", "static_analysis", "description_permissions",
          "lib_policy_analysis", "detect")

#: module-level functions: (module, attribute, span name)
FUNCTIONS = (
    ("repro.policy.html_text", "html_to_text", "policy.html_to_text"),
    ("repro.nlp.sentences", "split_sentences", "nlp.split"),
    ("repro.nlp.parser", "parse", "nlp.parse"),
    ("repro.android.static_analysis", "analyze_apk",
     "android.analyze_apk"),
    ("repro.hashing", "canonical_json", "hashing.render"),
    ("repro.hashing", "fingerprint", "hashing.fingerprint"),
    ("repro.hashing", "fingerprint_text", "hashing.fingerprint_text"),
)

#: methods: (module, class, method, span name)
METHODS = (
    ("repro.corpus.appstore", "CorpusSpec", "app", "corpus.derive"),
    ("repro.policy.analyzer", "PolicyAnalyzer", "analyze",
     "policy.analyze"),
    ("repro.description.autocog", "AutoCog", "infer_permissions",
     "description.infer"),
    ("repro.pipeline.pipeline", "Pipeline", "detect", "core.detect"),
) + tuple(
    ("repro.pipeline.artifacts", cls, op, f"pipeline.store_{op}")
    for cls in ("MemoryStore", "DiskStore", "SharedDiskStore",
                "TieredStore")
    for op in ("get", "put")
)

#: memo caches whose hit ratios are layer metrics
CACHES = {"nlp_parse": "nlp.parse_hit_ratio",
          "esa_interpret": "semantics.esa_interpret_hit_ratio",
          "esa_similarity": "semantics.esa_similarity_hit_ratio"}

#: (id, parent id or 0, name, thread, start, duration)
Span = tuple[Any, Any, str, int, float, float]


class Tracer:
    """In-memory spans and counters around the program's layers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        if self.active:
            with self._lock:
                self.counts[name] += amount

    def wrap(self, name: str, fn: Callable,
             on_result: Callable[[Any], None] | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name,
                                     threading.get_ident(), started,
                                     ended - started))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def _patch_function(self, module: str, attr: str, name: str,
                        on_result: Callable | None = None) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapped = self.wrap(name, original, on_result)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                self._undo.append(functools.partial(
                    setattr, mod, attr, original))

    def _patch_method(self, cls: type, method: str,
                      wrapped: Callable) -> None:
        original = cls.__dict__[method]
        setattr(cls, method, wrapped)
        self._undo.append(functools.partial(
            setattr, cls, method, original))

    def install(self) -> None:
        """Wrap every layer entry point.  Import the program first:
        only modules already loaded are scanned for bindings."""
        for module in {m for m, *_ in FUNCTIONS + METHODS}:
            importlib.import_module(module)
        for module, attr, name in FUNCTIONS:
            on_result = None
            if attr == "canonical_json":
                on_result = self._count_render
            self._patch_function(module, attr, name, on_result)
        for module, cls_name, method, name in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch_method(cls, method,
                               self.wrap(name, cls.__dict__[method]))
        from repro.pipeline.artifacts import PipelineStats

        original = PipelineStats.record
        tracer = self

        @functools.wraps(original)
        def record(stats, stage, *, hit, seconds, failed=False):
            outcome = "failures" if failed else (
                "hits" if hit else "executions")
            tracer.count(f"pipeline.{stage}.{outcome}")
            return original(stats, stage, hit=hit, seconds=seconds,
                            failed=failed)

        self._patch_method(PipelineStats, "record", record)

    def _count_render(self, text: str) -> None:
        self.count("hashing.renders")
        self.count("hashing.bytes", len(text.encode("utf-8")))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- output --------------------------------------------------------------

    def write_ndjson(self, path: str) -> None:
        """One JSON object per span, then the counters."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        pid = os.getpid()
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, thread, start, dur in self.spans:
                handle.write(json.dumps({
                    "pid": pid, "id": span_id, "parent": parent,
                    "name": name, "thread": thread, "start": start,
                    "dur": dur}) + "\n")
            handle.write(json.dumps({"pid": pid,
                                     "counts": dict(self.counts)}) + "\n")


def read_ndjson(path: str) -> tuple[list[Span], Counter[str]]:
    """Spans and counters written by :meth:`Tracer.write_ndjson`;
    span ids are made unique across processes by the pid."""
    spans: list[Span] = []
    counts: Counter[str] = Counter()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            doc = json.loads(line)
            if "counts" in doc:
                counts.update(doc["counts"])
                continue
            pid = doc["pid"]
            parent = doc["parent"]
            spans.append(((pid, doc["id"]), (pid, parent) if parent
                          else 0, doc["name"], doc["thread"],
                          doc["start"], doc["dur"]))
    return spans, counts


def cache_counts() -> dict[str, tuple[int, int]]:
    """``{cache: (hits, misses)}`` for the caches in :data:`CACHES`."""
    from repro.memo import cache_stats

    stats = cache_stats()
    return {name: (stats.get(name, {}).get("hits", 0),
                   stats.get(name, {}).get("misses", 0))
            for name in CACHES}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], counts: Counter[str],
                  caches: dict[str, tuple[int, int]],
                  checks: int) -> dict[str, tuple[float, str]]:
    """The in-program layer metrics of one traced phase.  *caches*
    holds the hit/miss deltas over the phase; *checks* is the number
    of app checks answered in it (the base of the per-check ratios)."""
    names = {span[0]: span[2] for span in spans}
    child_time: dict[Any, float] = defaultdict(float)
    for _, parent, _, _, _, dur in spans:
        if parent:
            child_time[parent] += dur
    calls: Counter[str] = Counter()
    outer: Counter[str] = Counter()
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for span_id, parent, name, _, _, dur in spans:
        calls[name] += 1
        own[name] += dur - child_time.get(span_id, 0.0)
        # nested spans of one layer (fingerprint -> canonical_json,
        # TieredStore -> MemoryStore) count once, at the outermost
        pname = names.get(parent, "")
        if name.startswith("hashing."):
            if not pname.startswith("hashing."):
                inclusive["hashing"] += dur
        elif pname != name:
            outer[name] += 1
            inclusive[name] += dur

    out: dict[str, tuple[float, str]] = {
        "corpus.apps": (calls["corpus.derive"], "count"),
        "corpus.derive_s": (inclusive["corpus.derive"], "s"),
        "policy.analyze_calls": (calls["policy.analyze"], "count"),
        "policy.analyze_self_s": (own["policy.analyze"], "s"),
        "policy.html_to_text_s": (inclusive["policy.html_to_text"], "s"),
        "nlp.split_s": (inclusive["nlp.split"], "s"),
        "nlp.parse_s": (inclusive["nlp.parse"], "s"),
        "android.analyze_apk_calls": (calls["android.analyze_apk"],
                                      "count"),
        "android.analyze_apk_s": (inclusive["android.analyze_apk"], "s"),
        "description.infer_calls": (calls["description.infer"], "count"),
        "description.infer_s": (inclusive["description.infer"], "s"),
        "core.detect_calls": (calls["core.detect"], "count"),
        "core.detect_self_s": (own["core.detect"], "s"),
        "hashing.renders_per_check": (
            _ratio(counts["hashing.renders"], checks), "count"),
        "hashing.bytes_per_check": (
            _ratio(counts["hashing.bytes"], checks), "B"),
        "hashing.s": (inclusive["hashing"], "s"),
        "pipeline.store_get_s": (inclusive["pipeline.store_get"], "s"),
        "pipeline.store_put_s": (inclusive["pipeline.store_put"], "s"),
        "pipeline.store_puts": (outer["pipeline.store_put"], "count"),
    }
    lib_hits = counts["pipeline.lib_policy_analysis.hits"]
    lib_exec = counts["pipeline.lib_policy_analysis.executions"]
    out["core.lib_policy_hit_ratio"] = (
        _ratio(lib_hits, lib_hits + lib_exec), "ratio")
    for cache, metric in CACHES.items():
        hits, misses = caches.get(cache, (0, 0))
        out[metric] = (_ratio(hits, hits + misses), "ratio")
    for stage in STAGES:
        out[f"pipeline.{stage}.executions"] = (
            counts[f"pipeline.{stage}.executions"], "count")
        out[f"pipeline.{stage}.hits"] = (
            counts[f"pipeline.{stage}.hits"], "count")
    return out
