"""Test-side reference planes for the differential suites.

- :mod:`tests.reference.esa_scalar` -- the scalar dict-of-dicts ESA
  plane with its nested-loop matchers, the reference the compiled
  plane in :mod:`repro.semantics.esa` must agree with bit for bit;
- :mod:`tests.reference.nomemo` -- a :class:`repro.memo.MemoCache`
  that never remembers anything, the reference for every memo cache
  and pruning fast path;
- :mod:`tests.reference.bootstrap` -- runs ``repro.cli`` (or a
  script) in a subprocess with either or both installed.

Both planes install by patching the product classes, so the product
code carries no switch for them.
"""
