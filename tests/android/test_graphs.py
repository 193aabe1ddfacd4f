"""Call graph, callbacks (EdgeMiner), intents (IccTA), APG tests."""

from repro.android.apg import build_apg
from repro.android.callbacks import add_callback_edges
from repro.android.callgraph import build_call_graph
from repro.android.dex import DexClass, Instruction, Method
from repro.android.intents import resolve_icc_links
from repro.android.manifest import Component

from tests.android.appbuilder import (
    PKG,
    add_activity,
    add_class,
    empty_apk,
    invoke,
)


class TestCallGraph:
    def test_internal_edge(self):
        apk = empty_apk()
        add_activity(apk, instructions=[invoke(f"{PKG}.Helper->run()")])
        add_class(apk, f"{PKG}.Helper", [("run", (), [])])
        graph = build_call_graph(apk.dex)
        assert f"{PKG}.Helper->run()" in graph.successors(
            f"{PKG}.MainActivity->onCreate(bundle)"
        )

    def test_external_node_marked(self):
        apk = empty_apk()
        add_activity(apk, instructions=[
            invoke("android.util.Log->i(tag,msg)")
        ])
        graph = build_call_graph(apk.dex)
        assert not graph.is_internal("android.util.Log->i(tag,msg)")

    def test_callers_of(self):
        apk = empty_apk()
        add_activity(apk, instructions=[invoke(f"{PKG}.H->run()")])
        add_class(apk, f"{PKG}.H", [("run", (), [])])
        graph = build_call_graph(apk.dex)
        assert list(graph.predecessors(f"{PKG}.H->run()")) == [
            f"{PKG}.MainActivity->onCreate(bundle)"
        ]

    def test_unknown_node_queries_empty(self):
        apk = empty_apk()
        add_activity(apk)
        apg = build_apg(apk)
        assert "x.Y->z()" not in apg.graph
        assert apg.methods_calling("x.Y->z()") == []
        assert apg.call_sites_of("x.Y->z()") == []


class TestCallbacks:
    def _apk_with_listener(self):
        apk = empty_apk()
        listener = f"{PKG}.Listener"
        add_activity(apk, instructions=[
            Instruction(op="new-instance", dest="v0", literal=listener),
            invoke("android.view.View->setOnClickListener(listener)",
                   args=("v0",)),
        ])
        add_class(apk, listener, [("onClick", ("view",), [
            invoke("android.telephony.TelephonyManager->getDeviceId()",
                   dest="v1"),
        ])])
        return apk

    def test_registration_edge_added(self):
        apk = self._apk_with_listener()
        graph = build_call_graph(apk.dex)
        added = add_callback_edges(graph, apk.dex)
        assert added == 1
        assert f"{PKG}.Listener->onClick(view)" in graph.successors(
            f"{PKG}.MainActivity->onCreate(bundle)"
        )

    def test_edge_added_once(self):
        apk = self._apk_with_listener()
        graph = build_call_graph(apk.dex)
        add_callback_edges(graph, apk.dex)
        assert add_callback_edges(graph, apk.dex) == 0
        assert list(graph.predecessors(
            f"{PKG}.Listener->onClick(view)"
        )) == [f"{PKG}.MainActivity->onCreate(bundle)"]

    def test_no_registration_no_edge(self):
        apk = empty_apk()
        add_activity(apk)
        graph = build_call_graph(apk.dex)
        assert add_callback_edges(graph, apk.dex) == 0


class TestIntents:
    def test_explicit_intent_resolved(self):
        apk = empty_apk()
        service = f"{PKG}.SyncService"
        add_activity(apk, instructions=[
            Instruction(op="invoke", dest="v0",
                        target="android.content.Intent-><init>(context,cls)",
                        literal=service),
            invoke("android.app.Activity->startService(intent)",
                   args=("v0",)),
        ])
        cls = add_class(apk, service, [("onStartCommand",
                                        ("intent", "flags", "id"), [])])
        cls.superclass = "android.app.Service"
        apk.manifest.add_component(Component(name=service, kind="service"))
        links = resolve_icc_links(apk.dex, apk.manifest)
        assert len(links) == 1
        assert links[0].target_component == service
        assert links[0].target_method == "onStartCommand"
        assert links[0].explicit

    def test_implicit_intent_resolved_via_filter(self):
        from repro.android.manifest import IntentFilter
        apk = empty_apk()
        receiver = f"{PKG}.Receiver"
        add_activity(apk, instructions=[
            Instruction(op="const-string", dest="v1",
                        literal="my.custom.ACTION"),
            Instruction(op="invoke", dest="v0",
                        target="android.content.Intent-><init>(action)",
                        args=("v1",)),
            invoke("android.app.Activity->sendBroadcast(intent)",
                   args=("v0",)),
        ])
        add_class(apk, receiver, [("onReceive", ("ctx", "intent"), [])])
        apk.manifest.add_component(Component(
            name=receiver, kind="receiver",
            intent_filters=[IntentFilter(actions=("my.custom.ACTION",))],
        ))
        links = resolve_icc_links(apk.dex, apk.manifest)
        assert len(links) == 1
        assert not links[0].explicit

    def test_unresolvable_intent_ignored(self):
        apk = empty_apk()
        add_activity(apk, instructions=[
            Instruction(op="invoke", dest="v0",
                        target="android.content.Intent-><init>(context,cls)",
                        literal="com.other.Missing"),
            invoke("android.app.Activity->startActivity(intent)",
                   args=("v0",)),
        ])
        assert resolve_icc_links(apk.dex, apk.manifest) == []


class TestApg:
    def test_apg_combines_edges(self):
        apk = empty_apk()
        listener = f"{PKG}.L"
        add_activity(apk, instructions=[
            Instruction(op="new-instance", dest="v0", literal=listener),
            invoke("android.view.View->setOnClickListener(listener)",
                   args=("v0",)),
        ])
        add_class(apk, listener, [("onClick", ("v",), [])])
        apg = build_apg(apk)
        assert apg.callback_edges == 1

    def test_call_sites_of(self):
        apk = empty_apk()
        add_activity(apk, instructions=[
            invoke("android.util.Log->i(tag,msg)"),
            invoke("android.util.Log->i(tag,msg)"),
        ])
        apg = build_apg(apk)
        sites = apg.call_sites_of("android.util.Log->i(tag,msg)")
        assert len(sites) == 2

    def test_reachable_from(self):
        apk = empty_apk()
        add_activity(apk, instructions=[invoke(f"{PKG}.H->run()")])
        add_class(apk, f"{PKG}.H", [("run", (), [])])
        apg = build_apg(apk)
        reached = apg.reachable_from(
            {f"{PKG}.MainActivity->onCreate(bundle)"}
        )
        assert f"{PKG}.H->run()" in reached
