"""Property tests for the memoized ESA hot paths.

The optimization layer promises exactness, not approximation: the
memoized ``similarity`` must agree with the compute-everything path
(the no-memo reference) to the last ulp, stay symmetric, and the
batch entry points (``similarity_many``, ``match_sets``,
``any_match``, ``group_hits``) must agree pairwise with the scalar
predicate on all four planes -- compiled or the scalar reference
(:mod:`tests.reference.esa_scalar`), memo or no memo.  Phrases are
drawn from the corpus vocabulary -- information surfaces,
:data:`ALIAS_SWAPS` paraphrases, and policy resource wording --
because that is what the detectors actually score.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.mutations import ALIAS_SWAPS
from repro.description.permission_map import INFO_SURFACE
from repro.memo import clear_caches
from repro.semantics.esa import default_model
from tests.reference.esa_scalar import scalar_plane
from tests.reference.nomemo import no_memo

#: every (vector, memo) plane combination; all four must agree bitwise
_PLANES = ((True, True), (True, False), (False, True), (False, False))

_POOL = sorted(
    {surface for aliases in INFO_SURFACE.values() for surface in aliases}
    | set(ALIAS_SWAPS)
    | set(ALIAS_SWAPS.values())
    | {
        "your precise location", "personal information",
        "usage data", "ip address", "cookies", "crash data",
        "  Location  ", "DEVICE ID",  # normalization fodder
        "zxqwv unknown terms", "",
    }
)

@contextmanager
def plane(vector: bool, memoized: bool) -> Iterator[None]:
    """Run the body on one plane, from empty caches."""
    clear_caches()
    with ExitStack() as planes:
        if not vector:
            planes.enter_context(scalar_plane())
        if not memoized:
            planes.enter_context(no_memo())
        yield


_PHRASES = st.sampled_from(_POOL)
_PHRASE_LISTS = st.lists(_PHRASES, min_size=0, max_size=6)


@pytest.fixture(autouse=True)
def fresh_caches():
    yield
    clear_caches()


class TestMemoExactness:
    @given(_PHRASES, _PHRASES)
    @settings(max_examples=150, deadline=None)
    def test_memoized_equals_unmemoized(self, a, b):
        esa = default_model()
        clear_caches()
        memoized = esa.similarity(a, b)
        with no_memo():
            plain = esa.similarity(a, b)
        assert abs(memoized - plain) <= 1e-9
        # the canonical cosine makes the agreement exact, not approximate
        assert memoized == plain

    @given(_PHRASES, _PHRASES)
    @settings(max_examples=150, deadline=None)
    def test_symmetry_exact(self, a, b):
        esa = default_model()
        for enabled in (True, False):
            with plane(vector=True, memoized=enabled):
                assert esa.similarity(a, b) == esa.similarity(b, a)

    @given(_PHRASES, _PHRASES)
    @settings(max_examples=150, deadline=None)
    def test_all_planes_agree_bitwise(self, a, b):
        """Vector x memo: the compiled plane and the scalar plane
        compute the same float, memoized or not."""
        esa = default_model()
        values = set()
        for vector, memoized in _PLANES:
            with plane(vector, memoized):
                values.add(esa.similarity(a, b))
        assert len(values) == 1


class TestBatchAgreement:
    @given(_PHRASES, _PHRASE_LISTS)
    @settings(max_examples=100, deadline=None)
    def test_similarity_many_pairwise(self, text, candidates):
        esa = default_model()
        batched = esa.similarity_many(text, candidates)
        assert batched == [esa.similarity(text, c) for c in candidates]

    @given(_PHRASE_LISTS, _PHRASE_LISTS)
    @settings(max_examples=100, deadline=None)
    def test_match_sets_agrees_with_nested_loop(self, texts_a, texts_b):
        esa = default_model()
        reference = [
            (i, j, esa.similarity(a, b))
            for i, a in enumerate(texts_a)
            for j, b in enumerate(texts_b)
            if esa.similarity(a, b) > esa.threshold
        ]
        for vector, memoized in _PLANES:
            with plane(vector, memoized):
                assert esa.match_sets(texts_a, texts_b) == reference, \
                    (vector, memoized)

    @given(_PHRASE_LISTS, _PHRASE_LISTS)
    @settings(max_examples=100, deadline=None)
    def test_any_match_agrees_with_nested_loop(self, texts_a, texts_b):
        esa = default_model()
        reference = any(
            esa.same_thing(a, b) for a in texts_a for b in texts_b
        )
        for vector, memoized in _PLANES:
            with plane(vector, memoized):
                assert esa.any_match(texts_a, texts_b) == reference, \
                    (vector, memoized)

    @given(st.lists(_PHRASE_LISTS, min_size=0, max_size=4),
           _PHRASE_LISTS)
    @settings(max_examples=100, deadline=None)
    def test_group_hits_agrees_with_nested_loop(self, groups, texts_b):
        esa = default_model()
        reference = [
            {
                j for j, b in enumerate(texts_b)
                if any(esa.same_thing(a, b) for a in group)
            }
            for group in groups
        ]
        for vector, memoized in _PLANES:
            with plane(vector, memoized):
                assert esa.group_hits(groups, texts_b) == reference, \
                    (vector, memoized)
