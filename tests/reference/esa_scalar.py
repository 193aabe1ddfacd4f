"""The scalar ESA plane: the reference the compiled plane must match.

This is the historical dict-of-dicts representation with its
nested-loop matchers, kept as it was when it ran in product code: a
term's interpretation vector is a ``{concept_id: weight}`` dict, a
text's vector accumulates those dicts term by term, similarity is
:func:`_cosine` over the two dicts, and the batch entry points are
plain nested loops over :meth:`EsaModel._interp`.  It is deliberately
not optimised; it is what the differential suites compare against.

All vectors sum in ascending concept-id order, which is why this
plane and the compiled merge-join plane agree to the last ulp.

:func:`scalar_plane` installs it by patching :class:`EsaModel`; the
memo caches stay whatever they are, so it composes with
:func:`tests.reference.nomemo.no_memo` into the four planes (compiled
or scalar, memo or no memo).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator
from unittest import mock

from repro.memo import MISS
from repro.semantics.compiled import CompiledKB, terms_of as _terms
from repro.semantics.esa import EsaModel, Interp

from tests.reference.nomemo import memo_enabled


def _cosine(key_a: str, vec_a: dict[int, float],
            key_b: str, vec_b: dict[int, float]) -> float:
    """Scalar-plane dot product of two L2-normalized sparse vectors,
    clamped to [0, 1].  The iteration order is canonical (smaller
    vector first, ties broken by key; keys ascend within a vector) so
    the float result is independent of the argument order -- a
    prerequisite for the symmetric pair cache *and* for agreeing
    bitwise with :func:`repro.semantics.esa._merge_cosine`."""
    if (len(vec_b), key_b) < (len(vec_a), key_a):
        vec_a, vec_b = vec_b, vec_a
    dot = sum(w * vec_b.get(c, 0.0) for c, w in vec_a.items())
    return max(0.0, min(1.0, dot))


def term_vector_dicts(kb: CompiledKB) -> dict[str, dict[int, float]]:
    """The dict-of-dicts view the scalar plane runs on.  Keys are
    in ascending concept-id order (the canonical order both
    planes sum in)."""
    out: dict[str, dict[int, float]] = {}
    for tid, term in enumerate(kb.terms):
        start, end = kb.offsets[tid], kb.offsets[tid + 1]
        out[term] = dict(zip(kb.cids[start:end],
                             kb.weights[start:end]))
    return out


#: id(kb) -> (kb, its dict-of-dicts view); the kb is held so its id
#: cannot be reused while the entry lives
_TERM_VECTORS: dict[int, tuple[CompiledKB,
                               dict[str, dict[int, float]]]] = {}


def _term_vectors(model: EsaModel) -> dict[str, dict[int, float]]:
    """The scalar view of *model*'s knowledge base, derived from the
    same compiled floats so the two planes stay bit-identical."""
    entry = _TERM_VECTORS.get(id(model.kb))
    if entry is None or entry[0] is not model.kb:
        entry = (model.kb, term_vector_dicts(model.kb))
        _TERM_VECTORS[id(model.kb)] = entry
    return entry[1]


# -- the scalar EsaModel methods ---------------------------------------------


def _compute_interpret(self: EsaModel, text: str) -> dict[int, float]:
    """Centroid of the text's term vectors, canonicalized to
    ascending concept-id order (accumulation per concept follows
    term order; the norm sums ascending)."""
    terms = _terms(text)
    if not terms:
        return {}
    term_vectors = _term_vectors(self)
    acc: dict[int, float] = {}
    for term in terms:
        vec = term_vectors.get(term)
        if vec is None:
            continue
        for cidx, weight in vec.items():
            acc[cidx] = acc.get(cidx, 0.0) + weight
    if not acc:
        return {}
    items = sorted(acc.items())
    norm = math.sqrt(sum(w * w for _, w in items))
    if norm == 0.0:
        return {}
    return {c: w / norm for c, w in items}


def _pair_sim(self: EsaModel, a: Interp, b: Interp) -> float:
    if not a.vec or not b.vec:
        return 0.0
    pair = (a.key, b.key) if a.key <= b.key else (b.key, a.key)
    cached = self._sim_cache.get(pair)
    if cached is not MISS:
        return cached
    if memo_enabled() and a.vec.keys().isdisjoint(b.vec.keys()):
        # shared-concept prune: disjoint sparse supports have an
        # exactly-zero dot product, so skipping the sum is exact
        sim = 0.0
    else:
        sim = _cosine(a.key, a.vec, b.key, b.vec)
    self._sim_cache.put(pair, sim)
    return sim


def similarity_many(self: EsaModel, text: str,
                    candidates: list[str]) -> list[float]:
    interp = self._interp(text)
    return [self._pair_sim(interp, self._interp(c))
            for c in candidates]


def any_match(self: EsaModel, texts_a: list[str], texts_b: list[str],
              threshold: float | None = None) -> bool:
    limit = self.threshold if threshold is None else threshold
    interps_b = [self._interp(t) for t in texts_b]
    for text_a in texts_a:
        interp_a = self._interp(text_a)
        if not interp_a.vec:
            continue
        for interp_b in interps_b:
            if self._pair_sim(interp_a, interp_b) > limit:
                return True
    return False


def match_sets(self: EsaModel, texts_a: list[str], texts_b: list[str],
               threshold: float | None = None,
               ) -> list[tuple[int, int, float]]:
    """With memoization on, candidates are pruned through a
    shared-concept inverted index over *texts_b* (exact for any
    ``threshold >= 0``); without it, the plain nested loop."""
    limit = self.threshold if threshold is None else threshold
    out = []
    if not memo_enabled():
        for i, text_a in enumerate(texts_a):
            for j, text_b in enumerate(texts_b):
                sim = self.similarity(text_a, text_b)
                if sim > limit:
                    out.append((i, j, sim))
        return out
    interps_b = [self._interp(t) for t in texts_b]
    index = self._inverted_index(interps_b)
    for i, text_a in enumerate(texts_a):
        interp_a = self._interp(text_a)
        if not interp_a.vec:
            continue
        for j in self._candidates(interp_a, index):
            sim = self._pair_sim(interp_a, interps_b[j])
            if sim > limit:
                out.append((i, j, sim))
    return out


def group_hits(self: EsaModel, groups: list[list[str]],
               texts_b: list[str],
               threshold: float | None = None) -> list[set[int]]:
    limit = self.threshold if threshold is None else threshold
    out: list[set[int]] = []
    for group in groups:
        hits: set[int] = set()
        for j, text_b in enumerate(texts_b):
            for text_a in group:
                if self.similarity(text_a, text_b) > limit:
                    hits.add(j)
                    break
        out.append(hits)
    return out


_SCALAR_METHODS = {
    "_compute_interpret": _compute_interpret,
    "_pair_sim": _pair_sim,
    "similarity_many": similarity_many,
    "any_match": any_match,
    "match_sets": match_sets,
    "group_hits": group_hits,
}


@contextmanager
def scalar_plane() -> Iterator[None]:
    """Run the body on the scalar plane.  Memoized interpretations
    from the compiled plane are the same floats, but callers clear
    the caches around a switch anyway so each plane computes its
    own."""
    with mock.patch.multiple(EsaModel, **_SCALAR_METHODS):
        yield


__all__ = ["_cosine", "term_vector_dicts", "scalar_plane"]
