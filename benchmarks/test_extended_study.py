"""The future-work study: base PPChecker vs. the extended checker.

Runs Table IV under both configurations.  The extended checker
(synonym patterns + constraint modelling) recovers every planted false
negative -- recall goes to 100% on both rows -- without disturbing a
single true positive or adding false positives.
"""

from __future__ import annotations

import pytest

from repro.core.extended import make_extended_checker
from repro.core.study import run_study_streaming
from repro.corpus.appstore import CorpusSpec


def test_extended_vs_base_table4(benchmark, store, study):
    spec = CorpusSpec()
    extended_checker = make_extended_checker(spec.lib_policy)

    def run_extended_slice():
        return run_study_streaming(spec, checker=make_extended_checker(
            spec.lib_policy
        ), limit=80)

    benchmark(run_extended_slice)

    extended = run_study_streaming(spec, checker=extended_checker)
    base_rows = study.table4()
    ext_rows = extended.table4()

    print("\nTable IV: base vs extended checker")
    print(f"{'row':<22} {'config':>9} {'TP':>4} {'FP':>4} {'FN':>4} "
          f"{'P':>7} {'R':>7}")
    for name in base_rows:
        base = base_rows[name]
        ext = ext_rows[name]
        print(f"{name:<22} {'base':>9} {base.tp:>4} {base.fp:>4} "
              f"{base.fn:>4} {base.precision:>7.3f} "
              f"{base.recall:>7.3f}")
        print(f"{'':<22} {'extended':>9} {ext.tp:>4} {ext.fp:>4} "
              f"{ext.fn:>4} {ext.precision:>7.3f} "
              f"{ext.recall:>7.3f}")

    for name in base_rows:
        base = base_rows[name]
        ext = ext_rows[name]
        # every FN recovered; recall hits 1.0
        assert ext.fn == 0, name
        assert ext.recall == pytest.approx(1.0)
        # no true positive lost, false positives unchanged
        assert ext.tp == base.tp + base.fn, name
        assert ext.fp == base.fp, name

    # the rest of the study is untouched by the extensions
    base_summary = study.summary()
    ext_summary = extended.summary()
    for key in ("incomplete_apps", "incorrect_apps"):
        assert ext_summary[key] == base_summary[key], key
