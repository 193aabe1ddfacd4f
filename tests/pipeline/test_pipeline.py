"""Pipeline determinism, cache effectiveness, and sharing.

The acceptance bar of the staged-pipeline refactor:

- a cached (warm) run and a cold run of the same bundle produce
  identical reports,
- a multi-worker batch equals the serial batch report-for-report,
- a warm rerun skips >= 90% of policy/static stage executions,
- lib-policy analyses are shared across apps and checker instances.
"""

import pytest

from repro.core.checker import PPChecker
from repro.core.study import ReportCollector, run_study_streaming
from repro.corpus.appstore import CorpusSpec
from repro.pipeline import Pipeline, build_store
from repro.pipeline.artifacts import MemoryStore


def _report_dicts(reports):
    return {pkg: report.to_dict() for pkg, report in reports.items()}


@pytest.fixture()
def slice_bundles(small_store):
    """A fresh-checker-sized workload incl. the packed app (index 7)
    and the ad-lib groups."""
    return [app.bundle for app in small_store.apps[:40]]


class TestDeterminism:
    def test_cold_equals_warm_per_bundle(self, small_store):
        checker = PPChecker(lib_policy_source=small_store.lib_policy)
        bundle = small_store.apps[0].bundle
        cold = checker.check(bundle)
        warm = checker.check(bundle)
        assert warm is not cold
        assert warm.to_dict() == cold.to_dict()

    def test_cold_equals_warm_batch(self, small_store, slice_bundles):
        checker = PPChecker(lib_policy_source=small_store.lib_policy)
        cold = checker.check_batch(slice_bundles)
        warm = checker.check_batch(slice_bundles)
        assert [r.to_dict() for r in cold] == \
            [r.to_dict() for r in warm]

    def test_two_workers_equal_serial(self, small_store,
                                      slice_bundles):
        serial = PPChecker(
            lib_policy_source=small_store.lib_policy
        ).check_batch(slice_bundles)
        parallel = PPChecker(
            lib_policy_source=small_store.lib_policy
        ).check_batch(slice_bundles, workers=2)
        assert [r.package for r in parallel] == \
            [r.package for r in serial]
        assert [r.to_dict() for r in parallel] == \
            [r.to_dict() for r in serial]

    def test_study_serial_parallel_warm_identical(self, small_store):
        spec = CorpusSpec(n_apps=len(small_store))

        def study(**kwargs):
            collector = ReportCollector()
            aggregate = run_study_streaming(spec, sinks=[collector],
                                            **kwargs)
            return aggregate.to_dict(), _report_dicts(collector.reports)

        serial = study()
        parallel = study(workers=3)
        warm_checker = PPChecker(lib_policy_source=spec.lib_policy)
        study(checker=warm_checker)
        warm = study(checker=warm_checker)
        assert parallel == serial
        assert warm == serial


class TestCacheEffectiveness:
    def test_warm_rerun_skips_90_percent(self, small_store,
                                         slice_bundles):
        checker = PPChecker(lib_policy_source=small_store.lib_policy)
        checker.check_batch(slice_bundles)
        cold = checker.stats.snapshot()
        checker.check_batch(slice_bundles)
        warm = checker.stats.snapshot()
        for stage in ("policy_analysis", "static_analysis"):
            requests = (warm[stage]["executions"]
                        + warm[stage]["cache_hits"]
                        - cold[stage]["executions"]
                        - cold[stage]["cache_hits"])
            executed = (warm[stage]["executions"]
                        - cold[stage]["executions"])
            assert requests == len(slice_bundles)
            assert executed <= 0.1 * requests, (
                f"{stage}: {executed}/{requests} re-executed"
            )

    def test_stats_expose_timing(self, small_store):
        checker = PPChecker(lib_policy_source=small_store.lib_policy)
        checker.check(small_store.apps[0].bundle)
        stats = checker.stats.to_dict()
        assert set(stats) >= {"policy_analysis", "static_analysis",
                              "description_permissions", "detect"}
        assert all(row["seconds"] >= 0 for row in stats.values())

    def test_returned_artifacts_are_defensive_copies(self,
                                                     small_store):
        checker = PPChecker(lib_policy_source=small_store.lib_policy)
        target = next(
            app for app in small_store.apps
            if checker.check(app.bundle).has_problem
        )
        original = checker.check(target.bundle)
        snapshot = original.to_dict()
        original.incomplete.clear()
        original.incorrect.clear()
        original.inconsistent.clear()
        assert checker.check(target.bundle).to_dict() == snapshot

    def test_policy_artifact_mutation_does_not_poison_cache(
            self, small_store):
        checker = PPChecker(lib_policy_source=small_store.lib_policy)
        bundle = small_store.apps[0].bundle
        analysis = checker.analyze_policy(bundle)
        analysis.statements.clear()
        analysis.sentences.clear()
        fresh = checker.analyze_policy(bundle)
        assert fresh.sentences


class TestSharedArtifacts:
    def test_lib_analyses_shared_across_checker_instances(
            self, small_store):
        store = MemoryStore()
        first = PPChecker(lib_policy_source=small_store.lib_policy,
                          artifact_store=store)
        second = PPChecker(lib_policy_source=small_store.lib_policy,
                           artifact_store=store)
        # find an app that ships a lib with a policy
        target = next(
            app for app in small_store.apps
            if first.analyze_code(app.bundle).libraries
        )
        first.check(target.bundle)
        before = second.stats.snapshot()
        assert before.get("lib_policy_analysis",
                          {"executions": 0})["executions"] == 0
        second.check(target.bundle)
        after = second.stats.snapshot()
        assert after["lib_policy_analysis"]["executions"] == 0
        assert after["lib_policy_analysis"]["cache_hits"] > 0

    def test_lib_analysis_correct_under_parallel_batch(
            self, small_store, slice_bundles):
        shared = PPChecker(lib_policy_source=small_store.lib_policy)
        parallel = shared.check_batch(slice_bundles, workers=4)
        solo = PPChecker(
            lib_policy_source=small_store.lib_policy
        ).check_batch(slice_bundles)
        assert [r.to_dict() for r in parallel] == \
            [r.to_dict() for r in solo]

    def test_disk_cache_survives_checker_instances(self, small_store,
                                                   tmp_path):
        cache_dir = str(tmp_path / "cache")
        bundle = small_store.apps[3].bundle
        cold_checker = PPChecker(
            lib_policy_source=small_store.lib_policy,
            artifact_store=build_store(cache_dir=cache_dir),
        )
        cold = cold_checker.check(bundle)
        warm_checker = PPChecker(
            lib_policy_source=small_store.lib_policy,
            artifact_store=build_store(cache_dir=cache_dir),
        )
        warm = warm_checker.check(bundle)
        assert warm.to_dict() == cold.to_dict()
        stats = warm_checker.stats.snapshot()
        for stage in ("policy_analysis", "static_analysis", "detect"):
            assert stats[stage]["executions"] == 0, stage
            assert stats[stage]["cache_hits"] == 1, stage


class TestFacade:
    def test_checker_without_store_gets_private_memory(self,
                                                       small_store):
        a = PPChecker(lib_policy_source=small_store.lib_policy)
        b = PPChecker(lib_policy_source=small_store.lib_policy)
        assert a.pipeline.store is not b.pipeline.store

    def test_pipeline_direct_use_matches_facade(self, small_store):
        bundle = small_store.apps[1].bundle
        pipeline = Pipeline(lib_policy_source=small_store.lib_policy)
        direct = pipeline.check(bundle)
        facade = PPChecker(
            lib_policy_source=small_store.lib_policy).check(bundle)
        assert direct.to_dict() == facade.to_dict()

    def test_extended_checker_still_overrides_through_facade(self):
        from repro.core.extended import make_extended_checker
        checker = make_extended_checker()
        assert checker.pipeline.policy_analyzer is \
            checker.policy_analyzer
