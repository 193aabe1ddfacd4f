"""Differential suite: the hot-path caches never change the output.

The ESA/NLP memoization layer (:mod:`repro.memo`) promises that every
fast path -- interpretation/similarity LRUs, shared-concept pruning,
the parse cache, the batch matchers -- is *exact*.  These tests prove
it the strong way: the JSON the user sees is byte-identical with the
caches on and with the no-memo reference installed
(:func:`tests.reference.nomemo.no_memo`, a ``MemoCache`` that never
remembers anything).

Covered surfaces:

- the study over the seeded 64-app corpus slice (in-process);
- ``python -m repro.cli check BUNDLE --json`` as a real subprocess,
  against the same command started through
  :mod:`tests.reference.bootstrap` with the no-memo reference, over
  corpus bundles exhibiting each problem type;
- the ``quickstart.py`` example's stdout, the same way.
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
from repro.memo import clear_caches
from tests.reference.nomemo import no_memo

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC_DIR = os.path.join(REPO_ROOT, "src")


@pytest.fixture
def fresh_caches():
    """Empty every memo cache afterwards."""
    yield
    clear_caches()


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "0"
    return env


def program_argv(program: list[str], plane: str | None) -> list[str]:
    """The command running *program* -- ``["repro.cli", ARGS...]`` or
    ``[SCRIPT, ARGS...]`` -- as is when *plane* is None, else through
    :mod:`tests.reference.bootstrap` on that reference plane."""
    if plane is not None:
        return [sys.executable, "-m", "tests.reference.bootstrap",
                plane, *program]
    if program[0] == "repro.cli":
        return [sys.executable, "-m", *program]
    return [sys.executable, *program]


class TestStudyEquivalence:
    def run_study_json(self, store) -> str:
        clear_caches()
        checker = PPChecker(lib_policy_source=store.lib_policy)
        result = run_study_streaming(
            CorpusSpec(seed=store.seed, n_apps=len(store)),
            checker=checker)
        return json.dumps(versioned(result.to_dict()), sort_keys=True)

    def test_study_byte_identical(self, small_store, fresh_caches):
        memoized = self.run_study_json(small_store)
        with no_memo():
            plain = self.run_study_json(small_store)
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
    def check_json(self, bundle_path: str, plane: str | None) -> bytes:
        proc = subprocess.run(
            program_argv(["repro.cli", "check", bundle_path, "--json"],
                         plane),
            capture_output=True, cwd=REPO_ROOT,
            env=subprocess_env(), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    def test_check_json_byte_identical(self, mid_store, tmp_path):
        paths = problem_bundle_paths(mid_store, tmp_path)
        assert len(paths) == 4
        for path in paths:
            memoized = self.check_json(path, plane=None)
            plain = self.check_json(path, plane="nomemo")
            assert memoized == plain, path
            payload = json.loads(memoized)
            assert payload["schema_version"] == 1


class TestExampleEquivalence:
    def quickstart_out(self, plane: str | None) -> bytes:
        proc = subprocess.run(
            program_argv([os.path.join("examples", "quickstart.py")],
                         plane),
            capture_output=True, cwd=REPO_ROOT,
            env=subprocess_env(), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    def test_quickstart_byte_identical(self):
        assert self.quickstart_out(None) \
            == self.quickstart_out("nomemo")
