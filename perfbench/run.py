#!/usr/bin/env python3
"""The PPChecker benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the program is imported from
``src/``).  ``--trace 0`` measures the end-to-end metrics for about
``--seconds`` seconds (longer if a latency percentile still lacks
samples); ``--trace 1`` runs a fixed amount of work untraced and
traced, and reports the per-layer metrics, so that their counts
repeat exactly on one seed.  Every metric is printed with its unit;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A wrong output makes ``correct`` false
and the exit code 1.  Claims must also hold on the held-out seed
7919, which no tuning used.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: where runs keep their working state (removed at exit) and traces
WORK = os.path.join(ROOT, ".perfbench")

#: environment switches that change the program being measured
REFUSED_ENV = ("REPRO_NO_MEMO", "REPRO_NO_VECTOR")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=False)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-study-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--apps", type=int, default=0,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _on_signal(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.probe_study_setup:
        from inproc import probe_study_setup

        probe_study_setup(args.seed, args.apps)
        return 0
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(f"perfbench: refusing to run with {', '.join(refused)} "
              f"set: it changes the program being measured",
              file=sys.stderr)
        return 2
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: --workload must be one of {names}",
              file=sys.stderr)
        return 2
    expected = {m["name"]: m["unit"] for m in
                spec["per_layer" if args.trace else "end_to_end"]}
    previous = {sig: signal.signal(sig, _on_signal)
                for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)}
    os.makedirs(WORK, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=WORK)
    try:
        result = _run(args, run_dir)
    finally:
        import serving

        serving.stop_all()
        shutil.rmtree(run_dir, ignore_errors=True)
        for sig, handler in previous.items():
            signal.signal(sig, handler)

    if args.trace:
        result.metrics["failed_ratio"] = (
            result.failed / max(result.attempted, 1), "ratio")
    missing = sorted(set(expected) - set(result.metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {}
    for name, unit in expected.items():
        value, got_unit = result.metrics[name]
        if got_unit != unit:
            raise RuntimeError(f"{name}: unit {got_unit}, want {unit}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:44s} {value:14.6g} {unit}")
    for problem in result.problems:
        print(f"WRONG OUTPUT: {problem}")
    print(json.dumps({"correct": result.correct,
                      "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": metrics}))
    return 0 if result.correct else 1


def _run(args: argparse.Namespace, run_dir: str):
    from common import Context

    ctx = Context(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=bool(args.trace),
                  root=ROOT, runner=os.path.abspath(__file__),
                  run_dir=run_dir, out_dir=os.path.join(WORK, "traces"))
    # fresh state for the program: KB artifacts and temp files stay
    # inside this run's directory
    os.environ["REPRO_KB_CACHE_DIR"] = ctx.fresh_dir("kb")
    os.environ["TMPDIR"] = ctx.fresh_dir("tmp")
    tempfile.tempdir = os.environ["TMPDIR"]
    os.environ["PYTHONPATH"] = SRC + (
        os.pathsep + os.environ["PYTHONPATH"]
        if os.environ.get("PYTHONPATH") else "")
    started = time.perf_counter()
    import repro  # noqa: F401 - timed: the program's import cost
    import repro.core.study  # noqa: F401
    elapsed = time.perf_counter() - started

    import inproc
    import serving
    from measure import slowdown

    ctx.import_s = elapsed / slowdown()

    workloads = {
        "study_cold": inproc.study_cold,
        "recheck_edit": inproc.recheck_edit,
        "serve": serving.serve,
        "serve_sharded": serving.serve_sharded,
    }
    ctx.note(f"perfbench {args.workload} seed={args.seed} "
             f"trace={args.trace}")
    return workloads[args.workload](ctx)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
