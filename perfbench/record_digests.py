"""Record the study digests ``study_cold`` checks its output against.

    python3 perfbench/record_digests.py SEED [SEED ...]

For each seed this runs one cold study of ``inproc.STUDY_APPS`` apps
on the two-worker path and stores the digest of its tables
(``StudyAggregate.to_dict()``) in ``digests.json``.  Record only on a
commit whose study tables are known to be right: every later
``study_cold`` run on a recorded seed must reproduce them.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inproc  # noqa: E402 - needs the path above


def main(seeds: list[int]) -> int:
    from repro import PPChecker
    from repro.core.study import run_study_streaming
    from repro.corpus.appstore import CorpusSpec
    from repro.memo import clear_caches

    with open(inproc.DIGESTS, encoding="utf-8") as handle:
        table = json.load(handle)
    row = table.setdefault(str(inproc.STUDY_APPS), {})
    for seed in seeds:
        spec = CorpusSpec(seed=seed, n_apps=inproc.STUDY_APPS)
        clear_caches()
        aggregate = run_study_streaming(
            spec, checker=PPChecker(lib_policy_source=spec.lib_policy),
            workers=2)
        if aggregate.failures:
            print(f"seed {seed}: {len(aggregate.failures)} apps failed; "
                  f"not recorded", file=sys.stderr)
            continue
        row[str(seed)] = inproc.study_digest(aggregate)
        print(f"seed {seed}: {row[str(seed)]}", flush=True)
    table[str(inproc.STUDY_APPS)] = dict(
        sorted(row.items(), key=lambda kv: int(kv[0])))
    with open(inproc.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(arg) for arg in sys.argv[1:]]))
