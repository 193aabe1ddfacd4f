"""The directed graph behind the APG and the taint flow graph.

Nodes, successors and predecessors all keep insertion order, which is
the order reachability and the taint DFS walk them, so every result
is deterministic.  A node may be flagged ``internal`` (a method with a
body in the dex); nodes that :meth:`DiGraph.add_edge` creates
implicitly carry no flag.
"""

from __future__ import annotations

from typing import Hashable, Iterator, KeysView


class DiGraph:
    """An adjacency-dict directed graph over hashable nodes."""

    __slots__ = ("_succ", "_pred", "_internal")

    def __init__(self) -> None:
        self._succ: dict[Hashable, dict[Hashable, None]] = {}
        self._pred: dict[Hashable, dict[Hashable, None]] = {}
        self._internal: set[Hashable] = set()

    def __contains__(self, node: Hashable) -> bool:
        return node in self._succ

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._succ)

    def add_node(self, node: Hashable, internal: bool = False) -> None:
        """Add *node* if absent; ``internal=True`` flags it (a flag is
        never cleared)."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}
        if internal:
            self._internal.add(node)

    def add_edge(self, u: Hashable, v: Hashable) -> bool:
        """Add the edge ``u -> v`` (and any missing endpoint, *u*
        first); False when it was already there."""
        self.add_node(u)
        self.add_node(v)
        if v in self._succ[u]:
            return False
        self._succ[u][v] = None
        self._pred[v][u] = None
        return True

    def successors(self, node: Hashable) -> KeysView[Hashable]:
        return self._succ[node].keys()

    def predecessors(self, node: Hashable) -> KeysView[Hashable]:
        return self._pred[node].keys()

    def is_internal(self, node: Hashable) -> bool:
        return node in self._internal


__all__ = ["DiGraph"]
