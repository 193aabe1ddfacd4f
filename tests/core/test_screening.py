"""Market-screening module tests."""

import json

import pytest

from repro.core.report import (
    AppReport,
    IncompleteFinding,
    InconsistentFinding,
    IncorrectFinding,
)
from repro.core.screening import screen, severity
from repro.policy.verbs import VerbCategory
from repro.semantics.resources import InfoType


def _incomplete(pkg="a", retained=False):
    return AppReport(package=pkg, incomplete=[
        IncompleteFinding(info=InfoType.LOCATION, source="code",
                          retained=retained),
    ])


def _incorrect(pkg="b", kind="collect"):
    return AppReport(package=pkg, incorrect=[
        IncorrectFinding(info=InfoType.CONTACT, source="code",
                         denial_sentence="...", kind=kind),
    ])


def _inconsistent(pkg="c"):
    return AppReport(package=pkg, inconsistent=[
        InconsistentFinding(lib_id="admob",
                            category=VerbCategory.COLLECT,
                            app_sentence="x", lib_sentence="y",
                            app_resource="location",
                            lib_resource="location"),
    ])


class TestSeverity:
    def test_clean_app_zero(self):
        assert severity(AppReport(package="x")) == 0.0

    def test_incorrect_outranks_inconsistent(self):
        assert severity(_incorrect()) > severity(_inconsistent())

    def test_inconsistent_outranks_incomplete(self):
        assert severity(_inconsistent()) > severity(_incomplete())

    def test_retention_bonus(self):
        assert severity(_incomplete(retained=True)) > severity(
            _incomplete(retained=False)
        )

    def test_retain_denial_bonus(self):
        assert severity(_incorrect(kind="retain")) > severity(
            _incorrect(kind="collect")
        )

    def test_more_findings_higher_score(self):
        one = _incomplete()
        two = AppReport(package="a", incomplete=[
            IncompleteFinding(info=InfoType.LOCATION, source="code"),
            IncompleteFinding(info=InfoType.CONTACT, source="code"),
        ])
        assert severity(two) > severity(one)


class TestScreen:
    def test_ranking_order(self):
        report = screen([_incomplete("low"), _incorrect("high"),
                         _inconsistent("mid")])
        assert [e.package for e in report.entries] == [
            "high", "mid", "low"
        ]

    def test_clean_apps_excluded(self):
        report = screen([AppReport(package="clean"), _incomplete("x")])
        assert [e.package for e in report.entries] == ["x"]

    def test_min_score_filter(self):
        report = screen([_incomplete("low"), _incorrect("high")],
                        min_score=5.0)
        assert [e.package for e in report.entries] == ["high"]

    def test_headlines(self):
        report = screen([_incorrect("a"), _inconsistent("b"),
                         _incomplete("c", retained=True)])
        headlines = {e.package: e.headline for e in report.entries}
        assert "denies" in headlines["a"]
        assert "admob" in headlines["b"]
        assert "(retained)" in headlines["c"]

    def test_top_k(self):
        report = screen([_incomplete(f"app{i}") for i in range(5)])
        assert len(report.top(3)) == 3

    def test_json_export(self):
        report = screen([_incorrect("a")])
        payload = json.loads(report.to_json())
        assert payload[0]["package"] == "a"
        assert payload[0]["kinds"] == ["incorrect"]

    def test_csv_export(self):
        report = screen([_incorrect("a")])
        lines = report.to_csv().strip().splitlines()
        assert lines[0].startswith("package,score")
        assert lines[1].startswith("a,")

    def test_dict_input(self):
        report = screen({"a": _incorrect("a")})
        assert report.entries[0].package == "a"


class TestOnStudy:
    def test_screening_the_corpus(self, checker):
        """The planted incorrect apps rank at the top of the market."""
        from repro.core.study import ReportCollector, run_study_streaming
        from repro.corpus.appstore import CorpusSpec
        collector = ReportCollector()
        run_study_streaming(CorpusSpec(), checker=checker, limit=320,
                            sinks=[collector])
        report = screen(collector.reports)
        top_kinds = {k for e in report.top(6) for k in e.kinds}
        assert "incorrect" in top_kinds
        # every flagged app appears exactly once
        packages = [e.package for e in report.entries]
        assert len(packages) == len(set(packages))
