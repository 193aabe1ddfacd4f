"""Additional APG / call-graph coverage."""

from repro.android.apg import build_apg
from repro.android.callgraph import build_call_graph

from tests.android.appbuilder import (
    LOCATION_API,
    PKG,
    add_activity,
    add_class,
    empty_apk,
    invoke,
)


class TestExternalInvocations:
    def test_externals_listed_with_callers(self):
        apk = empty_apk()
        add_activity(apk, instructions=[
            invoke(LOCATION_API, dest="v0"),
            invoke("android.util.Log->i(tag,msg)"),
        ])
        apg = build_apg(apk)
        externals = apg.external_invocations()
        assert LOCATION_API in externals
        assert externals[LOCATION_API] == [
            f"{PKG}.MainActivity->onCreate(bundle)"
        ]

    def test_internal_methods_not_listed(self):
        apk = empty_apk()
        add_activity(apk, instructions=[invoke(f"{PKG}.H->run()")])
        add_class(apk, f"{PKG}.H", [("run", (), [])])
        apg = build_apg(apk)
        assert f"{PKG}.H->run()" not in apg.external_invocations()


class TestNodePromotion:
    def test_callee_seen_before_definition_promoted(self):
        """A method invoked before its class is added must end up
        marked internal once the definition is in the dex."""
        apk = empty_apk()
        # caller added first, referencing a then-unknown class
        add_activity(apk, instructions=[invoke(f"{PKG}.Late->run()")])
        add_class(apk, f"{PKG}.Late", [("run", (), [])])
        graph = build_call_graph(apk.dex)
        assert graph.is_internal(f"{PKG}.Late->run()")

    def test_truly_external_stays_external(self):
        apk = empty_apk()
        add_activity(apk, instructions=[
            invoke("android.util.Log->i(tag,msg)"),
        ])
        graph = build_call_graph(apk.dex)
        assert not graph.is_internal("android.util.Log->i(tag,msg)")


class TestMethodLookup:
    def test_apg_method_resolution(self):
        apk = empty_apk()
        add_activity(apk)
        apg = build_apg(apk)
        method = apg.method(f"{PKG}.MainActivity->onCreate(bundle)")
        assert method is not None
        assert method.name == "onCreate"
        assert apg.method("missing.Class->m()") is None

    def test_reachable_from_unknown_source(self):
        apk = empty_apk()
        add_activity(apk)
        apg = build_apg(apk)
        assert apg.reachable_from({"not.in.graph->x()"}) == set()
