#!/usr/bin/env python3
"""Reproduce the paper's 1,197-app market study (Section V).

Streams the synthetic app store through PPChecker one app at a time,
and prints every table and figure of the evaluation section side by
side with the paper's published numbers.

Run:  python examples/market_study.py [n_apps]
"""

import sys
import time

from repro.core.checker import PPChecker
from repro.core.study import ReportCollector, run_study_streaming
from repro.corpus.appstore import CorpusSpec

PAPER = {
    "problem_apps": 282, "incomplete_apps": 222,
    "incomplete_via_description": 64, "incomplete_via_code": 180,
    "incorrect_apps": 4, "inconsistent_apps": 75,
}


def main() -> None:
    n_apps = int(sys.argv[1]) if len(sys.argv) > 1 else 1197

    t0 = time.time()
    spec = CorpusSpec(n_apps=n_apps)
    checker = PPChecker(lib_policy_source=spec.lib_policy)
    collector = ReportCollector()  # keeps the per-app reports
    result = run_study_streaming(spec, checker=checker,
                                 sinks=[collector])
    print(f"generated and checked {len(spec)} apps in "
          f"{time.time() - t0:.1f}s\n")

    summary = result.summary()
    print("== Section V-F: summary ==")
    for key, value in summary.items():
        paper = PAPER.get(key)
        suffix = f"   (paper: {paper})" if paper is not None else ""
        if isinstance(value, float):
            print(f"  {key:<28} {value:.3f}{suffix}")
        else:
            print(f"  {key:<28} {value}{suffix}")

    print("\n== Table III: permissions behind description gaps ==")
    for permission, count in sorted(result.table3().items(),
                                    key=lambda kv: -kv[1]):
        print(f"  {permission:<50} {count}")

    print("\n== Fig. 13: missed information (code path) ==")
    dist, retained = result.fig13()
    for info, count in dist.most_common():
        print(f"  {info.value:<20} {count}")
    print(f"  total records: {sum(dist.values())}, retained: {retained}")

    print("\n== Table IV: inconsistency detection ==")
    for name, row in result.table4().items():
        print(f"  {name:<20} TP={row.tp} FP={row.fp} "
              f"P={row.precision:.3f} R={row.recall:.3f} "
              f"F1={row.f1:.3f}")

    print("\n== sample findings ==")
    shown = 0
    for package, report in collector.reports.items():
        if report.has_problem and shown < 3:
            print()
            print(report.summary())
            shown += 1


if __name__ == "__main__":
    main()
