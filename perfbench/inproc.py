"""The in-process workloads: ``study_cold`` and ``recheck_edit``.

Both drive the program through ``CorpusSpec``, ``PPChecker`` and
``run_study_streaming`` only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

from common import Context, Result, paced_metrics
from layers import Tracer, cache_counts, layer_metrics
from measure import Paced, reference_seconds, samples_for, self_peak_rss_mb
from serving import idle_service_metrics

#: apps in the ``study_cold`` corpus: the 1,197-app planted window
#: plus clean apps beyond it
STUDY_APPS = 3000

#: apps in the traced ``study_cold`` phase (fixed, so counts repeat)
TRACE_STUDY_APPS = 1200

#: apps in the ``recheck_edit`` corpus (the paper's window)
RECHECK_APPS = 1197

#: share of apps that carry a fresh policy edit in each round
EDIT_SHARE = 0.1

#: rounds in the traced ``recheck_edit`` phase
TRACE_ROUNDS = 3

#: set-up repetitions; ``setup_s`` is their median (a study start-up
#: takes under a second, a priming pass a few)
PROBE_REPEATS = 5
PRIME_REPEATS = 3

#: edited-path samples ``recheck_edit`` collects at least (p99)
P99_SAMPLES = samples_for(99.0)

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "digests.json")


def study_digest(aggregate) -> str:
    """SHA-256 of the study tables (``StudyAggregate.to_dict()``)."""
    doc = json.dumps(aggregate.to_dict(), sort_keys=True,
                     separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def recorded_digest(seed: int, apps: int) -> str | None:
    with open(DIGESTS, encoding="utf-8") as handle:
        table = json.load(handle)
    return table.get(str(apps), {}).get(str(seed))


# -- study_cold -------------------------------------------------------------


def probe_study_setup(seed: int, apps: int) -> None:
    """The ``study_cold`` start-up, run in a fresh child process:
    import, corpus layout, and compiled-KB load."""
    from repro.corpus.appstore import CorpusSpec
    from repro.semantics.esa import default_model

    CorpusSpec(seed=seed, n_apps=apps).plan(0)
    default_model()


def _setup_probe_seconds(ctx: Context, apps: int) -> float:
    """Median of :data:`PROBE_REPEATS` fresh processes doing the study
    start-up, each with an empty compiled-KB directory, in reference
    seconds."""
    probes = iter(range(PROBE_REPEATS))

    def probe() -> float:
        env = dict(os.environ)
        env["REPRO_KB_CACHE_DIR"] = ctx.fresh_dir(f"probe-kb-{next(probes)}")
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, ctx.runner, "--probe-study-setup",
             "--seed", str(ctx.seed), "--apps", str(apps)],
            env=env, check=True, timeout=120,
            stdout=subprocess.DEVNULL)
        return time.perf_counter() - started

    return reference_seconds(probe, PROBE_REPEATS)


def _one_study(spec, paced: Paced | None = None):
    """A cold, single-worker streaming study; returns the aggregate
    and the seconds it took.  Per-app times (between consecutive
    outcomes) go to *paced*, whose calibration passes run outside
    them."""
    from repro import PPChecker
    from repro.core.study import run_study_streaming
    from repro.memo import clear_caches

    clear_caches()
    checker = PPChecker(lib_policy_source=spec.lib_policy)
    last = [0.0]

    def on_outcome(package, outcome) -> None:
        if paced is not None:
            paced.add(time.perf_counter() - last[0])
        last[0] = time.perf_counter()

    started = last[0] = time.perf_counter()
    aggregate = run_study_streaming(spec, checker=checker,
                                    on_outcome=on_outcome)
    return aggregate, time.perf_counter() - started


def study_cold(ctx: Context) -> Result:
    from repro.corpus.appstore import CorpusSpec
    from repro.semantics.esa import default_model

    result = Result()
    if ctx.trace:
        default_model()
        return _study_cold_traced(ctx, result)
    setup = _setup_probe_seconds(ctx, STUDY_APPS)
    default_model()
    spec = CorpusSpec(seed=ctx.seed, n_apps=STUDY_APPS)
    paced = Paced()
    busy = 0.0
    digests = []
    while busy < ctx.seconds or result.attempted < P99_SAMPLES:
        aggregate, elapsed = _one_study(spec, paced)
        busy += elapsed
        digests.append(study_digest(aggregate))
        result.attempted += len(spec)
        result.failed += len(aggregate.failures)
    _check_study_digests(ctx, result, spec, digests)
    result.metrics.update(paced_metrics(paced, ctx))
    result.metrics["setup_s"] = (setup, "s")
    result.metrics["peak_rss_mb"] = (self_peak_rss_mb(), "MiB")
    ctx.note(f"study_cold: {len(digests)} cold studies of "
             f"{STUDY_APPS} apps, {busy:.2f} s")
    return result


def _check_study_digests(ctx: Context, result: Result, spec,
                         digests: list[str]) -> None:
    """Every study must reproduce the digest recorded for this seed
    and size; for an unrecorded seed, a reference run on the
    two-worker path (outside the timed phase) stands in."""
    expected = recorded_digest(ctx.seed, len(spec))
    source = "recorded"
    if expected is None:
        from repro import PPChecker
        from repro.core.study import run_study_streaming
        from repro.memo import clear_caches

        clear_caches()
        reference = run_study_streaming(
            spec, checker=PPChecker(lib_policy_source=spec.lib_policy),
            workers=2)
        expected = study_digest(reference)
        source = "reference run"
    for i, digest in enumerate(digests):
        if digest != expected:
            result.fail(f"study {i}: digest {digest[:16]} differs "
                        f"from the {source} {expected[:16]}")


def _study_cold_traced(ctx: Context, result: Result) -> Result:
    """The same cold study untraced, traced, and untraced again, over
    a fixed :data:`TRACE_STUDY_APPS` apps so the counts repeat
    exactly; the overhead compares the traced study with the mean of
    the two around it."""
    from repro.corpus.appstore import CorpusSpec
    from repro.memo import clear_caches

    spec = CorpusSpec(seed=ctx.seed, n_apps=TRACE_STUDY_APPS)
    _one_study(spec)  # the first study in a process pays lazy set-up
    before_pass, traced, after_pass = Paced(), Paced(), Paced()
    plain, _ = _one_study(spec, before_pass)
    tracer = Tracer()
    tracer.install()
    try:
        clear_caches()
        before = cache_counts()
        tracer.active = True
        aggregate, _ = _one_study(spec, traced)
        tracer.active = False
        after = cache_counts()
    finally:
        tracer.uninstall()
    _one_study(spec, after_pass)
    if study_digest(aggregate) != study_digest(plain):
        result.fail("traced study differs from the untraced one")
    result.attempted = len(spec)
    result.failed = len(aggregate.failures)
    deltas = {k: (after[k][0] - before[k][0], after[k][1] - before[k][1])
              for k in after}
    result.metrics.update(layer_metrics(tracer.spans, tracer.counts,
                                        deltas, len(spec)))
    result.metrics.update(idle_service_metrics())
    result.metrics["trace.overhead_ratio"] = (
        2.0 * _reference_total(traced) / (_reference_total(before_pass)
                                          + _reference_total(after_pass)),
        "ratio")
    ctx.write_trace(tracer)
    return result


def _reference_total(paced: Paced) -> float:
    return sum(seconds for seconds, _ in paced.normalized())


# -- recheck_edit -----------------------------------------------------------


def _round_edits(bundles: list, seed: int, round_no: int) -> dict:
    """``{index: edited bundle}`` for one round: a seeded tenth of the
    apps get a fresh policy edit (extra boilerplate in a new HTML
    shell, from :mod:`repro.corpus.mutations`)."""
    from repro.corpus.mutations import inject_boilerplate, rewrap_html
    from repro.policy.html_text import html_to_text

    rng = random.Random(f"recheck_edit:{seed}:{round_no}")
    picked = rng.sample(range(len(bundles)), round(EDIT_SHARE * len(bundles)))
    edits = {}
    for index in sorted(picked):
        variant = rng.randrange(1 << 30)
        text = inject_boilerplate(html_to_text(bundles[index].policy),
                                  seed=variant)
        edits[index] = dataclasses.replace(
            bundles[index], policy=rewrap_html(text, seed=variant))
    return edits


def _primed_checker(spec, bundles) -> tuple[object, float]:
    """A fresh checker with empty caches, primed on every bundle;
    returns it and the priming time in reference seconds."""
    from repro import PPChecker
    from repro.memo import clear_caches

    clear_caches()
    checker = PPChecker(lib_policy_source=spec.lib_policy)
    paced = Paced()
    for bundle in bundles:
        started = time.perf_counter()
        checker.check(bundle)
        paced.add(time.perf_counter() - started)
    return checker, _reference_total(paced)


def _run_round(checker, bundles, edits, result, tracer=None,
               paced: Paced | None = None):
    """Re-check every app once; edited apps use their edit.  Each
    check's seconds go to *paced*, tagged ``edit`` or ``hit``.
    Returns (busy seconds, edited checks, reports by app index)."""
    reports = {}
    busy = 0.0
    for index, base in enumerate(bundles):
        bundle = edits.get(index, base)
        result.attempted += 1
        if tracer is not None:
            tracer.active = True
        started = time.perf_counter()
        try:
            report = checker.check(bundle)
        except Exception:  # a failed check is counted, not fatal
            report = None
        lap = time.perf_counter() - started
        if tracer is not None:
            tracer.active = False
        busy += lap
        if report is None:
            result.failed += 1
            continue
        if paced is not None:
            paced.add(lap, "edit" if index in edits else "hit")
        reports[index] = report
    return busy, len(set(edits) & set(reports)), reports


class _Reference:
    """A fresh checker's reports for the same bundles, computed
    outside the timed phase."""

    def __init__(self, spec, bundles) -> None:
        from repro import PPChecker

        self.checker = PPChecker(lib_policy_source=spec.lib_policy)
        self.bundles = bundles
        self.base: dict[int, dict] = {}

    def count_wrong(self, edits: dict, reports: dict) -> int:
        wrong = 0
        for index, report in reports.items():
            if index in edits:
                want = self.checker.check(edits[index]).to_dict()
            else:
                if index not in self.base:
                    self.base[index] = self.checker.check(
                        self.bundles[index]).to_dict()
                want = self.base[index]
            wrong += report.to_dict() != want
        return wrong


def recheck_edit(ctx: Context) -> Result:
    from repro.corpus.appstore import CorpusSpec
    from repro.semantics.esa import default_model

    result = Result()
    default_model()
    spec = CorpusSpec(seed=ctx.seed, n_apps=RECHECK_APPS)
    bundles = [app.bundle for app in spec.iter_apps()]
    if ctx.trace:
        return _recheck_traced(ctx, result, spec, bundles)
    primes = []
    for _ in range(PRIME_REPEATS):
        checker = None  # let the previous checker go before priming
        checker, seconds = _primed_checker(spec, bundles)
        primes.append(seconds)
    setup = ctx.import_s + statistics.median(primes)
    reference = _Reference(spec, bundles)
    paced = Paced()
    busy = 0.0
    rounds = edited = wrong = checked = 0
    while busy < ctx.seconds or edited < P99_SAMPLES:
        edits = _round_edits(bundles, ctx.seed, rounds)
        seconds, n_edited, reports = _run_round(
            checker, bundles, edits, result, paced=paced)
        busy += seconds
        edited += n_edited
        rounds += 1
        wrong += reference.count_wrong(edits, reports)
        checked += len(reports)
    if wrong:
        result.fail(f"{wrong} of {checked} reports differ from a fresh "
                    f"checker's")
    # p50_ms is the unchanged (all-hit) path, p99_ms the edited path
    result.metrics.update(paced_metrics(paced, ctx, typical="hit",
                                        tail="edit"))
    result.metrics["setup_s"] = (setup, "s")
    result.metrics["peak_rss_mb"] = (self_peak_rss_mb(), "MiB")
    ctx.note(f"recheck_edit: {rounds} rounds of {len(bundles)} apps, "
             f"{edited} edited checks, {busy:.2f} s")
    return result


def _recheck_traced(ctx, result, spec, bundles) -> Result:
    """:data:`TRACE_ROUNDS` rounds untraced, traced, and untraced
    again, each on a freshly primed checker; the overhead compares
    the traced rounds with the mean of the two around them."""
    rounds = [_round_edits(bundles, ctx.seed, r) for r in range(TRACE_ROUNDS)]

    def untraced_pass() -> Paced:
        checker, _ = _primed_checker(spec, bundles)
        paced = Paced()
        for edits in rounds:
            _run_round(checker, bundles, edits, Result(), paced=paced)
        return paced

    before_pass = untraced_pass()
    checker, _ = _primed_checker(spec, bundles)
    traced = Paced()
    tracer = Tracer()
    tracer.install()
    outputs = []
    try:
        before = cache_counts()
        for edits in rounds:
            _, _, reports = _run_round(checker, bundles, edits, result,
                                       tracer, traced)
            outputs.append((edits, reports))
        after = cache_counts()
    finally:
        tracer.uninstall()
    after_pass = untraced_pass()
    reference = _Reference(spec, bundles)
    wrong = sum(reference.count_wrong(edits, reports)
                for edits, reports in outputs)
    checked = sum(len(reports) for _, reports in outputs)
    if wrong:
        result.fail(f"{wrong} of {checked} traced reports differ from a "
                    f"fresh checker's")
    deltas = {k: (after[k][0] - before[k][0], after[k][1] - before[k][1])
              for k in after}
    result.metrics.update(layer_metrics(tracer.spans, tracer.counts,
                                        deltas, checked))
    result.metrics.update(idle_service_metrics())
    result.metrics["trace.overhead_ratio"] = (
        2.0 * _reference_total(traced) / (_reference_total(before_pass)
                                          + _reference_total(after_pass)),
        "ratio")
    ctx.write_trace(tracer)
    return result
