"""Run context and result shared by the workloads."""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field

from measure import Paced, percentile, tail_percentile


@dataclass
class Result:
    """What one run measured and whether its outputs were right."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        """Record a wrong output: the run fails (not the operation)."""
        self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems


@dataclass
class Context:
    """One run: its arguments and its private directories."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    root: str
    runner: str
    run_dir: str
    out_dir: str
    import_s: float = 0.0

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.run_dir, name)
        os.makedirs(path)
        return path

    def note(self, line: str) -> None:
        print(line, flush=True)

    def trace_path(self, suffix: str = "") -> str:
        return os.path.join(
            self.out_dir,
            f"trace-{self.workload}-seed{self.seed}{suffix}.ndjson")

    def write_trace(self, tracer) -> None:
        path = self.trace_path()
        tracer.write_ndjson(path)
        self.note(f"spans: {len(tracer.spans)} written to "
                  f"{os.path.relpath(path, self.root)}")


def paced_metrics(paced: Paced, ctx: Context, typical: object = None,
                  tail: object = None) -> dict[str, tuple[float, str]]:
    """``apps_per_s``, ``p50_ms`` and ``p99_ms`` from CPU-bound samples,
    in reference-CPU time (see :class:`measure.Paced`).  ``p50_ms``
    covers the samples tagged *typical* and ``p99_ms`` those tagged
    *tail* (None: every sample).  The raw wall-clock figures are
    printed alongside."""
    out = {}
    for label, samples in (("reference", paced.normalized()),
                           ("wall-clock", paced.raw())):
        seconds = [s for s, _ in samples]
        p50 = statistics.median(
            s for s, tag in samples if typical in (None, tag))
        metrics = {"apps_per_s": (len(seconds) / sum(seconds), "1/s"),
                   "p50_ms": (p50 * 1000.0, "ms")}
        metrics.update(tail_metric(
            [s for s, tag in samples if tail in (None, tag)], ctx))
        ctx.note(f"{label}: " + ", ".join(
            f"{name} {value:.4g}" for name, (value, _) in metrics.items()))
        out = out or metrics
    return out


def tail_metric(tail: list[float], ctx: Context
                ) -> dict[str, tuple[float, str]]:
    """``p99_ms`` over the *tail* samples (seconds in).  The workloads
    collect at least ``samples_for(99.0)`` of them, so ten lie beyond
    the p99; a smaller sample (a smoke test) reports the highest
    percentile it supports, and says so."""
    p = tail_percentile(len(tail))
    if p is None:
        raise RuntimeError(f"{len(tail)} samples support no percentile")
    if p < 99.0:
        ctx.note(f"p99_ms: {len(tail)} samples; reporting the p{p:g}")
    return {"p99_ms": (percentile(tail, min(p, 99.0)) * 1000.0, "ms")}
