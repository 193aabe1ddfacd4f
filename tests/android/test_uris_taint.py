"""Content-provider URI analysis and taint-path tests."""

from repro.android.taint import build_flow_graph, find_taint_paths
from repro.android.uris import find_uri_accesses
from repro.semantics.resources import InfoType

from tests.android.appbuilder import (
    DEVICE_API,
    LOCATION_API,
    LOG_SINK,
    NET_SINK,
    PKG,
    QUERY_API,
    URI_PARSE,
    add_activity,
    add_class,
    const_string,
    empty_apk,
    invoke,
)


class TestUriAnalysis:
    def test_direct_query(self):
        apk = empty_apk()
        add_activity(apk, instructions=[
            const_string("v0", "content://contacts"),
            invoke(URI_PARSE, dest="v1", args=("v0",)),
            invoke(QUERY_API, dest="v2", args=("v1",)),
        ])
        accesses = find_uri_accesses(apk.dex)
        assert len(accesses) == 1
        assert accesses[0].info is InfoType.CONTACT
        assert not accesses[0].via_field

    def test_uri_field_query(self):
        field = ("<android.provider.ContactsContract$CommonDataKinds"
                 "$Phone: android.net.Uri CONTENT_URI>")
        apk = empty_apk()
        add_activity(apk, instructions=[
            {"op": "iget", "dest": "v0", "literal": field},
            invoke(QUERY_API, dest="v1", args=("v0",)),
        ][0:0] + [
            # iget via raw Instruction
        ])
        from repro.android.dex import Instruction
        method = apk.dex.get_class(f"{PKG}.MainActivity").method("onCreate")
        method.instructions = [
            Instruction(op="iget", dest="v0", literal=field),
            Instruction(op="invoke", dest="v1", target=QUERY_API,
                        args=("v0",)),
            Instruction(op="return"),
        ]
        accesses = find_uri_accesses(apk.dex)
        assert len(accesses) == 1
        assert accesses[0].via_field

    def test_register_move_tracked(self):
        from repro.android.dex import Instruction
        apk = empty_apk()
        add_activity(apk, instructions=[
            const_string("v0", "content://sms"),
            invoke(URI_PARSE, dest="v1", args=("v0",)),
            Instruction(op="move", dest="v5", args=("v1",)),
            invoke(QUERY_API, dest="v2", args=("v5",)),
        ])
        accesses = find_uri_accesses(apk.dex)
        assert accesses and accesses[0].info is InfoType.SMS

    def test_interprocedural_uri_argument(self):
        apk = empty_apk()
        add_activity(apk, instructions=[
            const_string("v0", "content://com.android.calendar"),
            invoke(f"{PKG}.H->query(uri)", args=("v0",)),
        ])
        add_class(apk, f"{PKG}.H", [("query", ("uri",), [
            invoke(URI_PARSE, dest="v1", args=("uri",)),
            invoke(QUERY_API, dest="v2", args=("v1",)),
        ])])
        accesses = find_uri_accesses(apk.dex)
        assert any(a.info is InfoType.CALENDAR for a in accesses)

    def test_non_sensitive_uri_ignored(self):
        apk = empty_apk()
        add_activity(apk, instructions=[
            const_string("v0", "content://com.example.custom"),
            invoke(URI_PARSE, dest="v1", args=("v0",)),
            invoke(QUERY_API, dest="v2", args=("v1",)),
        ])
        assert find_uri_accesses(apk.dex) == []

    def test_no_queries_no_accesses(self):
        apk = empty_apk()
        add_activity(apk)
        assert find_uri_accesses(apk.dex) == []


class TestTaint:
    def test_direct_source_to_sink(self):
        apk = empty_apk()
        add_activity(apk, instructions=[
            invoke(LOCATION_API, dest="v0"),
            const_string("v1", "TAG"),
            invoke(LOG_SINK, args=("v1", "v0")),
        ])
        paths = find_taint_paths(apk.dex)
        assert len(paths) == 1
        assert paths[0].info is InfoType.LOCATION
        assert paths[0].sink_kind == "log"

    def test_interprocedural_path(self):
        apk = empty_apk()
        add_activity(apk, instructions=[
            invoke(DEVICE_API, dest="v0"),
            invoke(f"{PKG}.H->save(value)", args=("v0",)),
        ])
        add_class(apk, f"{PKG}.H", [("save", ("value",), [
            const_string("v1", "TAG"),
            invoke(LOG_SINK, args=("v1", "value")),
        ])])
        paths = find_taint_paths(apk.dex)
        assert len(paths) == 1
        assert paths[0].source_method.endswith("onCreate(bundle)")
        assert paths[0].sink_method.endswith("save(value)")

    def test_return_value_propagation(self):
        from repro.android.dex import Instruction
        apk = empty_apk()
        add_activity(apk, instructions=[
            invoke(f"{PKG}.H->fetch()", dest="v0"),
            const_string("v1", "TAG"),
            invoke(LOG_SINK, args=("v1", "v0")),
        ])
        add_class(apk, f"{PKG}.H", [("fetch", (), [
            invoke(LOCATION_API, dest="v2"),
            Instruction(op="return", args=("v2",)),
        ])])
        paths = find_taint_paths(apk.dex)
        assert len(paths) == 1
        assert paths[0].info is InfoType.LOCATION

    def test_field_store_load_propagation(self):
        from repro.android.dex import Instruction
        apk = empty_apk()
        add_activity(apk, instructions=[
            invoke(DEVICE_API, dest="v0"),
            Instruction(op="iput", args=("v0",), literal=f"{PKG}.F.id"),
        ])
        add_class(apk, f"{PKG}.H", [("leak", (), [
            Instruction(op="iget", dest="v1", literal=f"{PKG}.F.id"),
            invoke(NET_SINK, args=("v1",)),
        ])])
        paths = find_taint_paths(apk.dex)
        assert len(paths) == 1
        assert paths[0].sink_kind == "network"

    def test_external_call_taints_result(self):
        apk = empty_apk()
        add_activity(apk, instructions=[
            invoke(LOCATION_API, dest="v0"),
            invoke("java.lang.StringBuilder->append(str)", dest="v1",
                   args=("v0",)),
            const_string("v2", "TAG"),
            invoke(LOG_SINK, args=("v2", "v1")),
        ])
        assert len(find_taint_paths(apk.dex)) == 1

    def test_no_path_without_flow(self):
        apk = empty_apk()
        add_activity(apk, instructions=[
            invoke(LOCATION_API, dest="v0"),
            const_string("v1", "TAG"),
            const_string("v2", "static"),
            invoke(LOG_SINK, args=("v1", "v2")),
        ])
        assert find_taint_paths(apk.dex) == []

    def test_query_result_is_source(self):
        apk = empty_apk()
        add_activity(apk, instructions=[
            const_string("v0", "content://contacts"),
            invoke(URI_PARSE, dest="v1", args=("v0",)),
            invoke(QUERY_API, dest="v2", args=("v1",)),
            const_string("v3", "TAG"),
            invoke(LOG_SINK, args=("v3", "v2")),
        ])
        paths = find_taint_paths(apk.dex)
        assert len(paths) == 1
        assert paths[0].info is InfoType.CONTACT

    def test_flow_graph_move_edge(self):
        from repro.android.dex import Instruction
        apk = empty_apk()
        add_activity(apk, instructions=[
            Instruction(op="move", dest="v1", args=("v0",)),
        ])
        flow = build_flow_graph(apk.dex)
        sig = f"{PKG}.MainActivity->onCreate(bundle)"
        assert list(flow.successors((sig, "v0"))) == [(sig, "v1")]

    def test_path_hops_reported(self):
        apk = empty_apk()
        add_activity(apk, instructions=[
            invoke(LOCATION_API, dest="v0"),
            const_string("v1", "TAG"),
            invoke(LOG_SINK, args=("v1", "v0")),
        ])
        path = find_taint_paths(apk.dex)[0]
        assert path.hops
        assert "describe" not in path.describe() or True
        assert "location" in path.describe()


class TestDiamondFlow:
    """Two routes from one source to one sink: through a helper's
    parameter and return, and through a field store/load.  The corpus
    never builds such an app, so this pins the order-sensitive parts
    of the graphs exactly: which route the DFS reports as ``hops``
    (successors in insertion order) and the order of the external
    targets (node insertion order, callers sorted)."""

    FIELD = f"<{PKG}.MainActivity: double lat>"
    MAIN = f"{PKG}.MainActivity->onCreate(bundle)"
    HELPER = f"{PKG}.Helper->wrap(p)"
    AUDIT = f"{PKG}.Audit->log()"
    CLOCK = "android.os.SystemClock->uptimeMillis()"

    def _apk(self):
        from repro.android.dex import Instruction
        apk = empty_apk()
        add_activity(apk, instructions=[
            invoke(LOCATION_API, dest="v0"),
            Instruction(op="move", dest="v1", args=("v0",)),
            Instruction(op="move", dest="v2", args=("v0",)),
            invoke(self.HELPER, dest="v3", args=("v1",)),
            Instruction(op="iput", args=("v2",), literal=self.FIELD),
            Instruction(op="iget", dest="v3", literal=self.FIELD),
            const_string("v4", "TAG"),
            invoke(LOG_SINK, args=("v4", "v3")),
        ])
        add_class(apk, f"{PKG}.Helper", [("wrap", ("p",), [
            invoke(self.CLOCK),
            Instruction(op="return", args=("p",)),
        ])])
        add_class(apk, f"{PKG}.Audit", [("log", (), [
            const_string("v0", "TAG"),
            const_string("v1", "start"),
            invoke(LOG_SINK, args=("v0", "v1")),
        ])])
        return apk

    def test_dfs_picks_the_field_route(self):
        paths = find_taint_paths(self._apk().dex)
        assert len(paths) == 1
        assert paths[0].hops == (
            f"{self.MAIN}::v0",
            f"{self.MAIN}::v2",
            f"<FIELD>::{self.FIELD}",
            f"{self.MAIN}::v3",
        )

    def test_external_invocations_order(self):
        from repro.android.apg import build_apg
        externals = build_apg(self._apk()).external_invocations()
        assert list(externals.items()) == [
            (LOCATION_API, [self.MAIN]),
            (LOG_SINK, [self.AUDIT, self.MAIN]),
            (self.CLOCK, [self.HELPER]),
        ]
