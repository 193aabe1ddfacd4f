"""HTML study-report rendering tests."""

import pytest

from repro.core.html_report import render_study_html, write_study_html
from repro.core.study import (
    ReportCollector,
    StudyAggregate,
    run_study_streaming,
)
from repro.corpus.appstore import CorpusSpec


@pytest.fixture(scope="module")
def small_result(checker):
    """(aggregate, reports) of the first 250 apps."""
    collector = ReportCollector()
    aggregate = run_study_streaming(CorpusSpec(n_apps=320),
                                    checker=checker, limit=250,
                                    sinks=[collector])
    return aggregate, collector.reports


class TestRendering:
    def test_page_structure(self, small_result):
        page = render_study_html(*small_result)
        assert page.startswith("<!DOCTYPE html>")
        assert "</html>" in page
        assert "PPChecker study report" in page

    def test_summary_cards_present(self, small_result):
        page = render_study_html(*small_result)
        assert "apps analyzed" in page
        assert "apps with problems" in page

    def test_tables_present(self, small_result):
        page = render_study_html(*small_result)
        assert "Table III" in page
        assert "Fig. 13" in page
        assert "Table IV" in page
        assert "Screening worklist" in page

    def test_fig13_bars(self, small_result):
        page = render_study_html(*small_result)
        assert 'class="bar"' in page
        assert "location" in page

    def test_top_parameter(self, small_result):
        short = render_study_html(*small_result, top=3)
        long = render_study_html(*small_result, top=30)
        assert long.count("<tr>") > short.count("<tr>")

    def test_packages_escaped(self, small_result):
        page = render_study_html(*small_result)
        # no raw angle brackets leaking from content
        assert "<script>" not in page

    def test_write_to_file(self, small_result, tmp_path):
        path = str(tmp_path / "report.html")
        write_study_html(*small_result, path)
        with open(path) as handle:
            assert "PPChecker" in handle.read()

    def test_empty_study(self):
        page = render_study_html(StudyAggregate(), {})
        assert "apps analyzed" in page
