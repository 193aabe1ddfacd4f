"""Study-aggregation unit tests + the process plane."""

import pytest

from repro.core.study import (
    ReportCollector,
    RowMetrics,
    StudyAggregate,
    run_study_streaming,
)
from repro.corpus.appstore import CorpusSpec


def study(checker=None, **kwargs):
    """(aggregate, reports) of the 1,197-app corpus (or its first
    ``limit`` apps)."""
    collector = ReportCollector()
    aggregate = run_study_streaming(CorpusSpec(), checker=checker,
                                    sinks=[collector], **kwargs)
    return aggregate, collector.reports


class TestRowMetrics:
    def test_precision_recall_f1(self):
        row = RowMetrics(tp=41, fp=5, fn=4)
        assert row.flagged == 46
        assert row.precision == pytest.approx(41 / 46)
        assert row.recall == pytest.approx(41 / 45)
        assert 0.0 < row.f1 < 1.0

    def test_zero_division_safe(self):
        row = RowMetrics()
        assert row.precision == row.recall == row.f1 == 0.0


class TestStudyResult:
    def test_limit_parameter(self, checker):
        result, reports = study(checker, limit=10)
        assert result.n_apps == 10
        assert len(reports) == 10

    def test_reports_and_plans_aligned(self, checker):
        _, reports = study(checker, limit=10)
        spec = CorpusSpec()
        assert list(reports) == [spec.plan(i).package
                                 for i in range(10)]

    def test_empty_summary(self):
        result = StudyAggregate()
        summary = result.summary()
        assert summary["problem_apps"] == 0
        assert summary["problem_fraction"] == 0.0


class TestExport:
    def test_to_dict_json_serializable(self, checker):
        import json
        result, _ = study(checker, limit=80)
        payload = json.loads(json.dumps(result.to_dict()))
        assert "summary" in payload
        assert "table4" in payload

    def test_full_study_has_no_deviations(self, checker):
        result, _ = study(checker)
        assert result.deviations_from_paper() == {}

    def test_partial_study_reports_deviations(self, checker):
        result, _ = study(checker, limit=100)
        deviations = result.deviations_from_paper()
        assert "apps" in deviations


class TestParallelStudy:
    def test_parallel_matches_serial(self):
        spec = CorpusSpec(n_apps=80)
        runs = []
        for shards in (0, 2):
            collector = ReportCollector()
            aggregate = run_study_streaming(spec, shards=shards,
                                            sinks=[collector])
            runs.append((aggregate, {
                package: report.to_dict()
                for package, report in collector.reports.items()}))
        (serial, serial_reports), (parallel, parallel_reports) = runs
        assert parallel.to_dict() == serial.to_dict()
        assert list(parallel_reports) == list(serial_reports)
        assert parallel_reports == serial_reports

    def test_single_job(self):
        result = run_study_streaming(CorpusSpec(n_apps=20), shards=1)
        assert result.n_apps == 20
