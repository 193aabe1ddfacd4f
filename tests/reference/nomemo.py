"""The no-memo reference: a :class:`MemoCache` that never remembers.

Inside :func:`no_memo` every memo cache in the process -- the ESA
interpretation/similarity/group caches and the parse cache -- answers
:data:`repro.memo.MISS` and drops every ``put``, so each fast path
recomputes everything.  Counters stay untouched, as they did when
memoization was switched off.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Hashable, Iterator
from unittest import mock

from repro.memo import MISS, MemoCache


def _get(self: MemoCache, key: Hashable) -> Any:
    return MISS


def _put(self: MemoCache, key: Hashable, value: Any) -> None:
    return None


def memo_enabled() -> bool:
    """Whether the real caches are active (the fake is not
    installed).  The scalar reference plane branches on it exactly
    where it used to branch on the memo switch."""
    return MemoCache.get is not _get


@contextmanager
def no_memo() -> Iterator[None]:
    """Run the body with every memo cache disabled."""
    with mock.patch.multiple(MemoCache, get=_get, put=_put):
        yield


__all__ = ["memo_enabled", "no_memo"]
