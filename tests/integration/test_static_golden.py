"""Golden digest of static analysis over the 320-app corpus.

The study goldens only see what the detectors make of the static
facts, and the corpus never exercises the order-sensitive parts of the
graphs (every retained taint path has two hops).  This snapshot pins
``analyze_apk(apk).to_dict()`` itself -- facts, retained paths with
their hops, libraries, reachability -- for every app of the ``mid_store``
corpus, so a change in graph iteration order shows up here even when
no study table moves.

Apps are derived fresh from the lazy :class:`CorpusSpec` rather than
taken from the session store, because ``analyze_apk`` unpacks packed
APKs in place and other tests run the pipeline over the shared store.

Legitimate changes: rerun with ``--update-goldens`` and review.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.android.static_analysis import analyze_apk
from repro.corpus.appstore import CorpusSpec

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "goldens", "static_analysis_320.json")


def static_summary(seed: int, n_apps: int) -> dict:
    digest = hashlib.sha256()
    packed = retained = 0
    for app in CorpusSpec(seed=seed, n_apps=n_apps).iter_apps():
        doc = analyze_apk(app.bundle.apk).to_dict()
        packed += doc["was_packed"]
        retained += len(doc["retained"])
        digest.update(json.dumps(doc, sort_keys=True).encode("utf-8"))
        digest.update(b"\n")
    return {"apps": n_apps, "packed": packed, "retained": retained,
            "sha256": digest.hexdigest()}


def test_static_analysis_matches_golden(mid_store, request):
    summary = static_summary(mid_store.seed, len(mid_store))
    if request.config.getoption("--update-goldens"):
        with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        assert json.load(handle) == summary
