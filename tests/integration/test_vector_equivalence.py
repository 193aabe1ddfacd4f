"""Differential suite: the compiled data plane never changes output.

The vectorized ESA representation (:mod:`repro.semantics.compiled`
plus the merge-join/batched matchers in :mod:`repro.semantics.esa`)
promises bitwise exactness, orthogonally to the memoization layer.
These tests prove it the strong way over the real pipeline: the JSON
the user sees is byte-identical across every combination of
``REPRO_NO_VECTOR`` and ``REPRO_NO_MEMO``.

Covered surfaces:

- the study over the seeded 64-app slice across all four
  vector x memo combinations (in-process toggles);
- the study over the complete 1,197-app corpus, vectorized vs.
  scalar vs. scalar-no-memo (the ``slow`` lane);
- ``python -m repro.cli check BUNDLE --json`` as a real subprocess
  with ``REPRO_NO_VECTOR=1`` in the environment, over bundles
  exhibiting each problem type.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.core.checker import PPChecker
from repro.core.schema import versioned
from repro.core.study import run_study_streaming
from repro.corpus.appstore import CorpusSpec
from repro.memo import (
    NO_MEMO_ENV,
    NO_VECTOR_ENV,
    clear_caches,
    set_memo_enabled,
    set_vector_enabled,
)
from tests.integration.test_hotpath_equivalence import (
    problem_bundle_paths,
    subprocess_env,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture
def plane_toggle():
    """Restore the environment-controlled plane + memo state."""
    yield
    set_vector_enabled(None)
    set_memo_enabled(None)
    clear_caches()


def study_json(store, vector: bool, memo: bool) -> str:
    set_vector_enabled(vector)
    set_memo_enabled(memo)
    clear_caches()
    checker = PPChecker(lib_policy_source=store.lib_policy)
    result = run_study_streaming(
        CorpusSpec(seed=store.seed, n_apps=len(store)), checker=checker)
    return json.dumps(versioned(result.to_dict()), sort_keys=True)


class TestStudyEquivalence:
    def test_all_four_planes_byte_identical(self, small_store,
                                            plane_toggle):
        reference = study_json(small_store, vector=False, memo=False)
        for vector, memo in ((True, False), (True, True),
                             (False, True)):
            assert study_json(small_store, vector, memo) \
                == reference, (vector, memo)

    @pytest.mark.slow
    def test_full_study_byte_identical(self, full_store, plane_toggle):
        vectorized = study_json(full_store, vector=True, memo=True)
        scalar = study_json(full_store, vector=False, memo=True)
        plain = study_json(full_store, vector=False, memo=False)
        assert vectorized == scalar
        assert vectorized == plain


def vector_subprocess_env(no_vector: bool) -> dict[str, str]:
    env = subprocess_env(no_memo=False)
    env.pop(NO_VECTOR_ENV, None)
    if no_vector:
        env[NO_VECTOR_ENV] = "1"
    return env


class TestCliCheckEquivalence:
    def check_json(self, bundle_path: str, no_vector: bool) -> bytes:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", bundle_path,
             "--json"],
            capture_output=True, cwd=REPO_ROOT,
            env=vector_subprocess_env(no_vector), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    def test_check_json_byte_identical(self, mid_store, tmp_path):
        paths = problem_bundle_paths(mid_store, tmp_path)
        assert len(paths) == 4
        for path in paths:
            vectorized = self.check_json(path, no_vector=False)
            scalar = self.check_json(path, no_vector=True)
            assert vectorized == scalar, path
            assert json.loads(vectorized)["schema_version"] == 1

    def test_both_escape_hatches_compose(self, mid_store, tmp_path):
        """``REPRO_NO_VECTOR=1 REPRO_NO_MEMO=1`` together equals the
        default configuration byte-for-byte."""
        path = problem_bundle_paths(mid_store, tmp_path)[0]
        env = vector_subprocess_env(no_vector=True)
        env[NO_MEMO_ENV] = "1"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", path,
             "--json"],
            capture_output=True, cwd=REPO_ROOT, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == self.check_json(path, no_vector=False)
