"""The Android property graph (ValHunter substitute).

ValHunter [33] stores an APG -- AST, interprocedural CFG, method call
graph, and system dependency graph -- in a graph database and answers
analyses as queries.  Our APG is one directed graph
(:class:`repro.android.graph.DiGraph`) combining

- call edges (MCG),
- implicit callback edges (EdgeMiner),
- inter-component edges (IccTA),

plus per-method instruction access.  Reachability, URI analysis and
taint analysis all query this object, mirroring the paper's
"store the graph, then query it" architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.android.apk import Apk
from repro.android.callbacks import add_callback_edges
from repro.android.callgraph import build_call_graph
from repro.android.dex import DexFile, Method
from repro.android.graph import DiGraph
from repro.android.intents import add_icc_edges


@dataclass
class AndroidPropertyGraph:
    """The queryable program representation of one app."""

    apk: Apk
    graph: DiGraph = field(default_factory=DiGraph)
    callback_edges: int = 0
    icc_edges: int = 0

    @property
    def dex(self) -> DexFile:
        return self.apk.effective_dex()

    # -- queries ------------------------------------------------------------

    def method(self, signature: str) -> Method | None:
        return self.dex.resolve(signature)

    def methods_calling(self, callee: str) -> list[str]:
        if callee not in self.graph:
            return []
        return sorted(self.graph.predecessors(callee))

    def call_sites_of(self, callee: str) -> list[tuple[Method, int]]:
        """(caller method, instruction index) pairs invoking *callee*."""
        sites: list[tuple[Method, int]] = []
        for caller_sig in self.methods_calling(callee):
            caller = self.method(caller_sig)
            if caller is None:
                continue
            for idx, ins in enumerate(caller.instructions):
                if ins.is_invoke() and ins.target == callee:
                    sites.append((caller, idx))
        return sites

    def external_invocations(self) -> dict[str, list[str]]:
        """external target -> caller signatures, targets in graph
        order; nodes without the ``internal`` flag count as external."""
        return {
            node: sorted(self.graph.predecessors(node))
            for node in self.graph
            if not self.graph.is_internal(node)
        }

    def reachable_from(self, sources: set[str]) -> set[str]:
        """All graph nodes reachable from *sources* (inclusive)."""
        seen: set[str] = set()
        frontier = [s for s in sources if s in self.graph]
        seen.update(frontier)
        while frontier:
            node = frontier.pop()
            for nxt in self.graph.successors(node):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen


def build_apg(apk: Apk) -> AndroidPropertyGraph:
    """Construct the APG: MCG + callback edges + ICC edges."""
    dex = apk.effective_dex()
    graph = build_call_graph(dex)
    apg = AndroidPropertyGraph(apk=apk, graph=graph)
    apg.callback_edges = add_callback_edges(graph, dex)
    apg.icc_edges = add_icc_edges(graph, dex, apk.manifest)
    return apg


__all__ = ["AndroidPropertyGraph", "build_apg"]
