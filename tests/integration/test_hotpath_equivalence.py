"""Differential suite: the hot-path caches never change the output.

The ESA/NLP memoization layer (:mod:`repro.memo`) promises that every
fast path -- interpretation/similarity LRUs, shared-concept pruning,
the parse cache, the batch matchers -- is *exact*.  These tests prove
it the strong way: the JSON the user sees is byte-identical with the
caches on and with ``REPRO_NO_MEMO=1``.

Covered surfaces:

- the study over the seeded 64-app corpus slice (in-process,
  toggled via :func:`repro.memo.set_memo_enabled`);
- ``python -m repro.cli check BUNDLE --json`` as a real subprocess,
  with and without ``REPRO_NO_MEMO=1`` in the environment, over
  corpus bundles exhibiting each problem type;
- the ``quickstart.py`` example's stdout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.android.serialization import save_bundle
from repro.core.checker import PPChecker
from repro.core.schema import versioned
from repro.core.study import run_study_streaming
from repro.corpus.appstore import CorpusSpec
from repro.memo import NO_MEMO_ENV, clear_caches, set_memo_enabled

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC_DIR = os.path.join(REPO_ROOT, "src")


@pytest.fixture
def memo_toggle():
    """Restore the environment-controlled memo state afterwards."""
    yield set_memo_enabled
    set_memo_enabled(None)
    clear_caches()


def subprocess_env(no_memo: bool) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    env.pop(NO_MEMO_ENV, None)
    if no_memo:
        env[NO_MEMO_ENV] = "1"
    return env


class TestStudyEquivalence:
    def run_study_json(self, store, enabled: bool) -> str:
        set_memo_enabled(enabled)
        clear_caches()
        checker = PPChecker(lib_policy_source=store.lib_policy)
        result = run_study_streaming(
            CorpusSpec(seed=store.seed, n_apps=len(store)),
            checker=checker)
        return json.dumps(versioned(result.to_dict()), sort_keys=True)

    def test_study_byte_identical(self, small_store, memo_toggle):
        memoized = self.run_study_json(small_store, enabled=True)
        plain = self.run_study_json(small_store, enabled=False)
        assert memoized == plain


def problem_bundle_paths(store, tmp_path) -> list[str]:
    """One serialized bundle per planted problem type, plus a clean
    app, from the seeded corpus."""
    picks: dict[str, object] = {}
    for app in store.apps:
        plan = app.plan
        if "incomplete" not in picks and (plan.gt_incomplete_desc
                                          or plan.gt_incomplete_code):
            picks["incomplete"] = app
        elif "incorrect" not in picks and plan.gt_incorrect:
            picks["incorrect"] = app
        elif "inconsistent" not in picks and plan.inconsistencies:
            picks["inconsistent"] = app
        elif "clean" not in picks and not (
                plan.gt_incomplete_desc or plan.gt_incomplete_code
                or plan.gt_incorrect or plan.inconsistencies):
            picks["clean"] = app
        if len(picks) == 4:
            break
    paths = []
    for label, app in sorted(picks.items()):
        path = str(tmp_path / f"{label}.json")
        save_bundle(app.bundle, path)
        paths.append(path)
    return paths


class TestCliCheckEquivalence:
    def check_json(self, bundle_path: str, no_memo: bool) -> bytes:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", bundle_path,
             "--json"],
            capture_output=True, cwd=REPO_ROOT,
            env=subprocess_env(no_memo), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    def test_check_json_byte_identical(self, mid_store, tmp_path):
        paths = problem_bundle_paths(mid_store, tmp_path)
        assert len(paths) == 4
        for path in paths:
            memoized = self.check_json(path, no_memo=False)
            plain = self.check_json(path, no_memo=True)
            assert memoized == plain, path
            payload = json.loads(memoized)
            assert payload["schema_version"] == 1


class TestExampleEquivalence:
    def quickstart_out(self, no_memo: bool) -> bytes:
        proc = subprocess.run(
            [sys.executable, os.path.join("examples", "quickstart.py")],
            capture_output=True, cwd=REPO_ROOT,
            env=subprocess_env(no_memo), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    def test_quickstart_byte_identical(self):
        assert self.quickstart_out(False) == self.quickstart_out(True)
