"""PPChecker reproduction.

A from-scratch Python reproduction of *"Can We Trust the Privacy
Policies of Android Apps?"* (Yu, Luo, Liu, Zhang -- DSN 2016):
automatic detection of incomplete, incorrect, and inconsistent Android
privacy policies, together with every substrate the paper depends on
(an English NLP pipeline, ESA semantic similarity, an Android
app/bytecode model with static analyses, AutoCog-style description
analysis, and a synthetic 1,197-app evaluation corpus).

Quickstart::

    from repro import PPChecker, AppBundle

    checker = PPChecker(lib_policy_source=my_lib_policies)
    report = checker.check(AppBundle(
        package="com.example.app",
        apk=apk, policy=policy_html, description=description,
        policy_is_html=True,
    ))
    print(report.summary())

Reproducing the paper's study::

    from repro.corpus.appstore import CorpusSpec
    from repro.core.study import run_study_streaming

    spec = CorpusSpec()                   # 1,197 synthetic apps, lazy
    result = run_study_streaming(spec)
    print(result.summary())               # 282 apps, 23.6%, ...
"""

from repro.core.checker import AppBundle, PPChecker
from repro.pipeline import Pipeline, build_store
from repro.core.report import (
    AppFailure,
    AppReport,
    IncompleteFinding,
    InconsistentFinding,
    IncorrectFinding,
)
from repro.policy.analyzer import PolicyAnalyzer, analyze_policy
from repro.policy.model import PolicyAnalysis, Statement
from repro.policy.verbs import VerbCategory
from repro.semantics.resources import InfoType
from repro.android.apk import Apk
from repro.android.manifest import AndroidManifest, Component
from repro.android.static_analysis import analyze_apk

__version__ = "1.0.0"

__all__ = [
    "AppBundle",
    "PPChecker",
    "Pipeline",
    "build_store",
    "AppFailure",
    "AppReport",
    "IncompleteFinding",
    "IncorrectFinding",
    "InconsistentFinding",
    "PolicyAnalyzer",
    "analyze_policy",
    "PolicyAnalysis",
    "Statement",
    "VerbCategory",
    "InfoType",
    "Apk",
    "AndroidManifest",
    "Component",
    "analyze_apk",
    "__version__",
]
