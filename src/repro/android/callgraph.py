"""Method call graph (MCG) construction.

Nodes are method signatures; a directed edge caller -> callee exists
for every ``invoke`` instruction.  Invocations of framework methods
(not present in the dex) become *external* nodes so sensitive-API call
sites stay visible in the graph.
"""

from __future__ import annotations

from repro.android.dex import DexFile
from repro.android.graph import DiGraph


def build_call_graph(dex: DexFile) -> DiGraph:
    """The MCG.  Methods with a body in the dex are flagged
    ``internal``, including callees invoked before their class was
    added to the dex."""
    graph = DiGraph()
    for method in dex.all_methods():
        graph.add_node(method.signature, internal=True)
        for ins in method.invocations():
            callee = ins.target
            if callee not in graph:
                graph.add_node(callee,
                               internal=dex.resolve(callee) is not None)
            graph.add_edge(method.signature, callee)
    return graph


__all__ = ["build_call_graph"]
