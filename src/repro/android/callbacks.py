"""Implicit callback resolution (EdgeMiner substitute).

EdgeMiner [36] mines the Android framework for registration ->
callback pairs (e.g. ``setOnClickListener`` eventually invokes
``onClick`` on the registered listener).  We embed the pairs that
matter for app analysis and, when a registration invoke passes a
listener object whose class is known (via ``new-instance`` def-use in
the same method), add an implicit edge from the registering method to
the listener class's callback method.
"""

from __future__ import annotations

from repro.android.dex import DexFile, Method
from repro.android.graph import DiGraph

#: registration method name -> callback method name on the listener.
CALLBACK_REGISTRATIONS: dict[str, str] = {
    "setOnClickListener": "onClick",
    "setOnLongClickListener": "onLongClick",
    "setOnChangeListener": "onClick",
    "setOnCheckedChangeListener": "onCheckedChanged",
    "setOnItemClickListener": "onItemClick",
    "setOnItemSelectedListener": "onItemSelected",
    "setOnTouchListener": "onTouch",
    "setOnKeyListener": "onKey",
    "setOnEditorActionListener": "onEditorAction",
    "setOnSeekBarChangeListener": "onProgressChanged",
    "requestLocationUpdates": "onLocationChanged",
    "registerListener": "onSensorChanged",
    "addTextChangedListener": "onTextChanged",
    "setOnPreparedListener": "onPrepared",
    "setOnCompletionListener": "onCompletion",
    "schedule": "run",
    "post": "run",
    "postDelayed": "run",
    "execute": "doInBackground",
}

#: callback method names; these are also treated as UI entry points.
CALLBACK_METHOD_NAMES: frozenset[str] = frozenset(
    CALLBACK_REGISTRATIONS.values()
)


def _listener_classes(method: Method) -> dict[str, str]:
    """register -> class map from new-instance instructions."""
    classes: dict[str, str] = {}
    for ins in method.instructions:
        if ins.op == "new-instance" and ins.dest:
            classes[ins.dest] = ins.literal
        elif ins.op == "move" and ins.args and ins.args[0] in classes:
            classes[ins.dest] = classes[ins.args[0]]
    return classes


def add_callback_edges(graph: DiGraph, dex: DexFile) -> int:
    """Add implicit registration->callback edges to the call graph.

    Returns the number of edges added.
    """
    added = 0
    for method in dex.all_methods():
        listener_of = _listener_classes(method)
        for ins in method.invocations():
            target_name = ins.target.split("->", 1)[-1].split("(", 1)[0]
            callback = CALLBACK_REGISTRATIONS.get(target_name)
            if callback is None:
                continue
            # the listener is any argument register with a known class
            for reg in ins.args:
                listener_class = listener_of.get(reg)
                if listener_class is None:
                    continue
                cls = dex.get_class(listener_class)
                if cls is None or cls.method(callback) is None:
                    continue
                callback_sig = cls.method(callback).signature
                graph.add_node(callback_sig, internal=True)
                if graph.add_edge(method.signature, callback_sig):
                    added += 1
    return added


__all__ = [
    "CALLBACK_REGISTRATIONS",
    "CALLBACK_METHOD_NAMES",
    "add_callback_edges",
]
