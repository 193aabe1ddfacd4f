"""Shared benchmark fixtures.

The full 1,197-app study is computed once per session; individual
benchmarks measure their own pipeline stage and assert the reproduced
numbers against the paper's.  ``study`` is the aggregate (the tables);
``reports`` and ``plans`` (package -> report / ground-truth plan) are
there for the per-app questions the tables do not answer, such as
which apps a detector flagged.
"""

from __future__ import annotations

import pytest

from repro.core.checker import PPChecker
from repro.core.study import ReportCollector, run_study_streaming
from repro.corpus.appstore import CorpusSpec, generate_app_store


@pytest.fixture(scope="session")
def store():
    return generate_app_store()


@pytest.fixture(scope="session")
def checker(store):
    return PPChecker(lib_policy_source=store.lib_policy)


@pytest.fixture(scope="session")
def study_run(checker):
    collector = ReportCollector()
    aggregate = run_study_streaming(CorpusSpec(), checker=checker,
                                    sinks=[collector])
    return aggregate, collector.reports


@pytest.fixture(scope="session")
def study(study_run):
    return study_run[0]


@pytest.fixture(scope="session")
def reports(study_run):
    return study_run[1]


@pytest.fixture(scope="session")
def plans(store):
    return {app.package: app.plan for app in store.apps}
