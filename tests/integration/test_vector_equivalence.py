"""Differential suite: the compiled data plane never changes output.

The vectorized ESA representation (:mod:`repro.semantics.compiled`
plus the merge-join/batched matchers in :mod:`repro.semantics.esa`)
promises bitwise exactness, orthogonally to the memoization layer.
These tests prove it the strong way over the real pipeline: the JSON
the user sees is byte-identical to the scalar reference plane
(:mod:`tests.reference.esa_scalar`), with and without the no-memo
reference (:mod:`tests.reference.nomemo`).

Covered surfaces:

- the study over the seeded 64-app slice across all four planes,
  compiled or scalar x memo or no memo (in-process);
- the study over the complete 1,197-app corpus, compiled vs.
  scalar vs. scalar-no-memo (the ``slow`` lane);
- ``python -m repro.cli check BUNDLE --json`` as a real subprocess
  against the same command started through
  :mod:`tests.reference.bootstrap` on the scalar plane, over bundles
  exhibiting each problem type.
"""

from __future__ import annotations

import json
import os
import subprocess
from contextlib import ExitStack

import pytest

from repro.core.checker import PPChecker
from repro.core.schema import versioned
from repro.core.study import run_study_streaming
from repro.corpus.appstore import CorpusSpec
from repro.memo import clear_caches
from tests.integration.test_hotpath_equivalence import (
    problem_bundle_paths,
    program_argv,
    subprocess_env,
)
from tests.reference.esa_scalar import scalar_plane
from tests.reference.nomemo import no_memo

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture
def plane_toggle():
    """Empty every memo cache afterwards."""
    yield
    clear_caches()


def study_json(store, vector: bool, memo: bool) -> str:
    """The study on the compiled (``vector``) or scalar plane, with
    the memo caches or the no-memo reference."""
    clear_caches()
    with ExitStack() as planes:
        if not vector:
            planes.enter_context(scalar_plane())
        if not memo:
            planes.enter_context(no_memo())
        checker = PPChecker(lib_policy_source=store.lib_policy)
        result = run_study_streaming(
            CorpusSpec(seed=store.seed, n_apps=len(store)),
            checker=checker)
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
            vectorized = self.check_json(path, plane=None)
            scalar = self.check_json(path, plane="scalar")
            assert vectorized == scalar, path
            assert json.loads(vectorized)["schema_version"] == 1

    def test_both_escape_hatches_compose(self, mid_store, tmp_path):
        """The scalar plane and the no-memo reference installed
        together equal the product byte-for-byte."""
        path = problem_bundle_paths(mid_store, tmp_path)[0]
        assert self.check_json(path, plane="scalar+nomemo") \
            == self.check_json(path, plane=None)
