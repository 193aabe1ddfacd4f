"""Ablation benchmarks for the design choices the paper calls out.

- reachability analysis (Section III-C.2: infeasible sensitive calls
  are dropped -- the paper's advantage over Slavin et al. [49]);
- content-provider URI analysis (ditto: [49] only considers APIs);
- the third-party disclaimer rule for Alg. 5;
- the ESA threshold around the paper's 0.67;
- the semantic-drift blacklists in bootstrapping.
"""

from __future__ import annotations

import pytest

from repro.core.checker import PPChecker
from repro.core.matching import InfoMatcher
from repro.corpus.plans import DISCLAIMER_APPS
from repro.corpus.sentences import generate_labeled_sentences
from repro.policy.bootstrap import Bootstrapper
from repro.semantics.esa import default_model


def test_ablation_reachability(benchmark, store):
    """Without reachability, dead sensitive code produces extra
    incomplete-policy false positives."""
    sample = store.apps[335:435]  # background apps with dead code

    def flag_count(use_reachability):
        checker = PPChecker(lib_policy_source=store.lib_policy,
                            use_reachability=use_reachability)
        return sum(
            1 for app in sample
            if checker.check(app.bundle).incomplete_via("code")
        )

    with_reach = benchmark(lambda: flag_count(True))
    without_reach = flag_count(False)
    print(f"\nAblation: reachability analysis over {len(sample)} "
          f"clean apps")
    print(f"  flagged with reachability:    {with_reach}")
    print(f"  flagged without reachability: {without_reach}")
    assert with_reach == 0
    assert without_reach > with_reach


def test_ablation_uri_analysis(benchmark, store, checker):
    """Without URI analysis, content-provider collection (contacts,
    calendar, SMS) is invisible -- Alg. 2 misses those gaps."""
    from repro.semantics.resources import InfoType
    uri_infos = {InfoType.CONTACT, InfoType.CALENDAR, InfoType.SMS,
                 InfoType.BROWSER_HISTORY}
    sample = [
        app for app in store.apps[64:222]
        if any(info in uri_infos for info, _r in
               app.plan.gt_incomplete_code)
    ]

    def detected(use_uri):
        local = PPChecker(lib_policy_source=store.lib_policy,
                          use_uri_analysis=use_uri)
        count = 0
        for app in sample:
            report = local.check(app.bundle)
            found = {f.info for f in report.incomplete_via("code")}
            if found & uri_infos:
                count += 1
        return count

    with_uri = benchmark(lambda: detected(True))
    without_uri = detected(False)
    print(f"\nAblation: URI analysis over {len(sample)} apps with "
          "provider-based gaps")
    print(f"  detected with URI analysis:    {with_uri}")
    print(f"  detected without URI analysis: {without_uri}")
    assert with_uri == len(sample)
    assert without_uri < with_uri


def test_ablation_disclaimer(benchmark, store):
    """Honoring third-party disclaimers suppresses Alg. 5 findings on
    the disclaimed apps; switching the rule off flags all of them."""
    sample = [store.apps[i] for i in DISCLAIMER_APPS]

    def flagged(honor):
        local = PPChecker(lib_policy_source=store.lib_policy,
                          honor_disclaimer=honor)
        return sum(
            1 for app in sample
            if local.check(app.bundle).is_inconsistent
        )

    honored = benchmark(lambda: flagged(True))
    ignored = flagged(False)
    print(f"\nAblation: disclaimer rule over {len(sample)} "
          "disclaimed apps")
    print(f"  flagged honoring disclaimers:  {honored}")
    print(f"  flagged ignoring disclaimers:  {ignored}")
    assert honored == 0
    assert ignored == len(sample)


def test_ablation_esa_threshold(benchmark):
    """Sweep the similarity threshold around the paper's 0.67: too low
    conflates distinct resources, too high breaks paraphrase
    matching."""
    esa = default_model()
    same = [("location", "your precise location"),
            ("contacts", "address book"),
            ("device id", "unique device identifier"),
            ("phone number", "real phone number")]
    different = [("location", "contacts"), ("camera", "calendar"),
                 ("email address", "device id"), ("sms", "account")]

    def accuracy(threshold):
        correct = sum(
            esa.similarity(a, b) > threshold for a, b in same
        ) + sum(
            esa.similarity(a, b) <= threshold for a, b in different
        )
        return correct / (len(same) + len(different))

    benchmark(lambda: accuracy(0.67))
    print("\nAblation: ESA threshold sweep")
    print(f"{'threshold':>10} {'accuracy':>9}")
    for threshold in (0.1, 0.3, 0.5, 0.67, 0.8, 0.95):
        print(f"{threshold:>10.2f} {accuracy(threshold):>9.2f}")
    assert accuracy(0.67) == 1.0
    assert accuracy(0.95) < 1.0


def test_ablation_synonym_expansion(benchmark, store):
    """The paper's future-work fix: expanding the verb sets with
    synonyms recovers the Table IV false negatives ("display",
    "harvest", "view") without disturbing the true positives."""
    from repro.corpus.plans import INCONSISTENT_FN, INCONSISTENT_NEW
    from repro.policy.analyzer import PolicyAnalyzer
    from repro.policy.synonyms import expanded_pattern_set

    fn_apps = [store.apps[i] for i in INCONSISTENT_FN]
    tp_apps = [store.apps[i] for i in list(INCONSISTENT_NEW)[:10]]

    def detected(use_synonyms):
        analyzer = PolicyAnalyzer(
            patterns=expanded_pattern_set()
        ) if use_synonyms else PolicyAnalyzer()
        local = PPChecker(lib_policy_source=store.lib_policy,
                          policy_analyzer=analyzer)
        fn_found = sum(
            1 for app in fn_apps
            if local.check(app.bundle).is_inconsistent
        )
        tp_found = sum(
            1 for app in tp_apps
            if local.check(app.bundle).is_inconsistent
        )
        return fn_found, tp_found

    base_fn, base_tp = benchmark(lambda: detected(False))
    syn_fn, syn_tp = detected(True)
    print(f"\nAblation: verb-synonym expansion over "
          f"{len(fn_apps)} FN + {len(tp_apps)} TP apps")
    print(f"  base patterns:     FN recovered {base_fn}/{len(fn_apps)}, "
          f"TP kept {base_tp}/{len(tp_apps)}")
    print(f"  expanded patterns: FN recovered {syn_fn}/{len(fn_apps)}, "
          f"TP kept {syn_tp}/{len(tp_apps)}")
    assert base_fn == 0           # paper behaviour: all FNs missed
    assert syn_fn == len(fn_apps)  # the extension recovers them
    assert syn_tp == base_tp == len(tp_apps)


def test_ablation_obfuscation(benchmark, store):
    """Limitations, measured: ProGuard-style renaming breaks the
    name-based heuristics (app-vs-lib attribution, prefix lib
    detection) while the name-independent analyses (taint) survive."""
    import copy

    from repro.android.libs import detect_libraries
    from repro.android.obfuscation import obfuscate
    from repro.android.packer import unpack
    from repro.android.static_analysis import analyze_apk

    from repro.android.libs import LIB_REGISTRY

    def _libs_obfuscatable(plan) -> bool:
        # Play-Services-hosted SDKs sit under ProGuard keep rules and
        # survive renaming; exclude them so the measurement is clean
        return all(
            not LIB_REGISTRY[lib_id].prefix.startswith(
                "com.google.android.gms."
            )
            for lib_id in plan.lib_ids
        )

    sample = []
    for app in store.apps[64:104]:
        if app.plan.retains and app.plan.lib_ids and \
                _libs_obfuscatable(app.plan):
            sample.append(app)
    sample = sample[:10]

    def measure(do_obfuscate):
        attribution_kept = retention_kept = libs_kept = 0
        for app in sample:
            apk = copy.deepcopy(app.bundle.apk)
            if apk.packed:
                unpack(apk)
            if do_obfuscate:
                obfuscate(apk)
            result = analyze_apk(apk)
            if set(app.plan.collects) <= result.collected_infos():
                attribution_kept += 1
            if set(app.plan.retains) <= result.retained_infos():
                retention_kept += 1
            if detect_libraries(apk.dex):
                libs_kept += 1
        return attribution_kept, retention_kept, libs_kept

    base = benchmark(lambda: measure(False))
    obf = measure(True)
    print(f"\nAblation: obfuscation over {len(sample)} apps "
          "(kept / total)")
    print(f"  {'':<14} {'attribution':>12} {'retention':>10} "
          f"{'lib detect':>11}")
    print(f"  {'plain':<14} {base[0]:>12} {base[1]:>10} {base[2]:>11}")
    print(f"  {'obfuscated':<14} {obf[0]:>12} {obf[1]:>10} "
          f"{obf[2]:>11}")
    assert base[0] == base[1] == base[2] == len(sample)
    assert obf[0] == 0            # attribution heuristic collapses
    assert obf[1] == len(sample)  # taint is name-independent
    assert obf[2] == 0            # prefix lib detection collapses


def test_ablation_bootstrap_blacklists(benchmark):
    """The semantic-drift blacklists keep user-subject and
    non-personal-object patterns out of the learned set."""
    train, _val = generate_labeled_sentences()
    extra = train + [
        # drift bait: user actions phrased like collection statements
        s for s in train[:50]
    ]

    def pattern_count(use_blacklists):
        bootstrapper = Bootstrapper(train[:400],
                                    use_blacklists=use_blacklists)
        return len(bootstrapper.run())

    with_bl = benchmark(lambda: pattern_count(True))
    without_bl = pattern_count(False)
    print("\nAblation: bootstrap semantic-drift blacklists")
    print(f"  patterns with blacklists:    {with_bl}")
    print(f"  patterns without blacklists: {without_bl}")
    assert without_bl >= with_bl
