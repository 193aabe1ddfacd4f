"""Scalability: end-to-end throughput of the full pipeline.

Not a paper table -- an engineering benchmark showing the study scales
linearly in corpus size and quantifying per-app cost, plus bootstrap
confidence intervals around the reproduced Table IV metrics (the
paper's point estimates sit inside them).

``test_streaming_scale`` additionally emits ``BENCH_scale.json``: the
streaming study at 10k and 100k apps, recording apps/sec and peak
memory, and asserting the bounded-memory contract (peak at 100k stays
within 2x peak at 10k -- the window and the fold are constant-size,
the memo caches capacity-bounded).
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc

import pytest

from repro.core.checker import PPChecker
from repro.core.metrics import bootstrap_interval, wilson_interval
from repro.core.study import run_study_streaming
from repro.corpus.appstore import CorpusSpec


def test_throughput_scaling(benchmark):
    spec = CorpusSpec()

    def run_100():
        return run_study_streaming(spec, checker=PPChecker(
            lib_policy_source=spec.lib_policy
        ), limit=100)

    benchmark(run_100)

    print("\nScalability: study wall time by corpus size")
    print(f"{'apps':>6} {'seconds':>9} {'apps/sec':>9}")
    timings = []
    for size in (100, 300, 600, 1197):
        local = PPChecker(lib_policy_source=spec.lib_policy)
        start = time.perf_counter()
        run_study_streaming(spec, checker=local, limit=size)
        elapsed = time.perf_counter() - start
        timings.append((size, elapsed))
        print(f"{size:>6} {elapsed:>9.2f} {size / elapsed:>9.0f}")

    # roughly linear: doubling size should not much more than double
    # the time (allow 3x headroom for noise)
    per_app = [elapsed / size for size, elapsed in timings]
    assert max(per_app) <= 3 * min(per_app)


BENCH_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_scale.json")

SCALE_SIZES = (10_000, 100_000)


def test_streaming_scale():
    """Streaming study at 10k/100k apps: throughput + peak memory.

    Peak memory is tracemalloc's high-water mark of Python-heap
    allocations during the run -- unlike ``ru_maxrss`` it is not
    monotone across phases of one process, so the 100k figure is a
    real measurement, not an echo of the 10k one.

    An untraced full-size pass runs first so the capacity-bounded memo
    caches (dep-tree parse, ESA similarity) are at steady state before
    either measurement; otherwise the larger run pays the remaining
    cache fill and the ratio measures saturation, not streaming growth.
    """
    spec = CorpusSpec(n_apps=max(SCALE_SIZES))
    checker = PPChecker(lib_policy_source=spec.lib_policy)
    warm = run_study_streaming(spec, checker=checker,
                               limit=max(SCALE_SIZES))
    assert warm.n_apps == max(SCALE_SIZES)
    result: dict = {"window": 4, "sizes": list(SCALE_SIZES)}

    print("\nStreaming scale: apps/sec and peak memory by corpus size")
    print(f"{'apps':>8} {'seconds':>9} {'apps/sec':>9} "
          f"{'peak MB':>8}")
    for size in SCALE_SIZES:
        tracemalloc.start()
        start = time.perf_counter()
        aggregate = run_study_streaming(spec, checker=checker,
                                        limit=size)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert aggregate.n_apps == size
        result[f"at_{size // 1000}k"] = {
            "apps": size,
            "seconds": elapsed,
            "apps_per_sec": size / elapsed,
            "peak_tracemalloc_bytes": peak,
            "peak_rss_kb": aggregate.telemetry["peak_rss_kb"],
        }
        print(f"{size:>8} {elapsed:>9.1f} {size / elapsed:>9.0f} "
              f"{peak / 1e6:>8.1f}")

    small = result[f"at_{SCALE_SIZES[0] // 1000}k"]
    large = result[f"at_{SCALE_SIZES[1] // 1000}k"]
    ratio = large["peak_tracemalloc_bytes"] \
        / small["peak_tracemalloc_bytes"]
    result["peak_memory_ratio"] = ratio
    # the bounded-memory contract: 10x the corpus, <= 2x the memory
    assert ratio <= 2.0, (
        f"peak memory at {SCALE_SIZES[1]} apps is {ratio:.2f}x the "
        f"{SCALE_SIZES[0]}-app peak (bound: 2x)")

    from repro.core.schema import versioned

    with open(BENCH_PATH, "w", encoding="utf-8") as handle:
        json.dump(versioned(result), handle, indent=2, sort_keys=True)
    print(f"  wrote {BENCH_PATH}")


def test_confidence_intervals(benchmark, study):
    """Bootstrap CIs around Table IV; paper values must fall inside."""
    rows = study.table4()
    sample_outcomes = [(True, True)] * 41 + [(True, False)] * 5
    benchmark(lambda: bootstrap_interval(sample_outcomes,
                                         metric="precision"))

    print("\nTable IV with 95% bootstrap confidence intervals")
    paper = {
        "collect_use_retain": {"precision": 0.891, "recall": 0.917},
        "disclose": {"precision": 0.907, "recall": 0.923},
    }
    for name, row in rows.items():
        outcomes = (
            [(True, True)] * row.tp + [(True, False)] * row.fp
            + [(False, True)] * row.fn
        )
        for metric in ("precision", "recall"):
            interval = bootstrap_interval(outcomes, metric=metric)
            inside = interval.contains(paper[name][metric])
            print(f"  {name:<20} {metric:<10} {interval}   "
                  f"paper {paper[name][metric]:.3f} "
                  f"{'inside' if inside else 'OUTSIDE'}")
            assert inside, (name, metric)

    fraction = wilson_interval(
        study.summary()["problem_apps"], study.summary()["apps"]
    )
    print(f"  problem fraction {fraction} (paper 0.236)")
    assert fraction.contains(0.236)
