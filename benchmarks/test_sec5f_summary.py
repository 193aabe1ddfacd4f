"""Section V-F -- summary of the experimental result.

Paper: of 1,197 apps, 282 (23.6%) have at least one problem: 222
incomplete policies (64 via description, 180 via code), 4 incorrect
(2 via description, 4 via code), and 75 inconsistent.
"""

from __future__ import annotations

import pytest

PAPER_SUMMARY = {
    "apps": 1197,
    "problem_apps": 282,
    "incomplete_apps": 222,
    "incomplete_via_description": 64,
    "incomplete_via_code": 180,
    "incorrect_apps": 4,
    "incorrect_via_description": 2,
    "incorrect_via_code": 4,
    "inconsistent_apps": 75,
}


def test_sec5f_summary(benchmark, store, checker, study):
    # benchmark the full end-to-end study over a 120-app slice
    sample = store.apps[:120]

    def run_slice():
        reports = [checker.check(app.bundle) for app in sample]
        return sum(1 for r in reports if r.has_problem)

    benchmark(run_slice)

    summary = study.summary()
    print("\nSection V-F -- study summary")
    print(f"{'metric':<30} {'paper':>7} {'measured':>9}")
    for key, paper_value in PAPER_SUMMARY.items():
        print(f"{key:<30} {paper_value:>7} {summary[key]:>9}")
    print(f"{'problem fraction':<30} {'23.6%':>7} "
          f"{summary['problem_fraction'] * 100:>8.1f}%")

    for key, paper_value in PAPER_SUMMARY.items():
        assert summary[key] == paper_value, key
    assert summary["problem_fraction"] == pytest.approx(0.236,
                                                        abs=0.002)
