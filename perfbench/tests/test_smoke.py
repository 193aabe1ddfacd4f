"""Tiny-size runs of every workload through ``run.main``.

Each asserts that the run prints every metric ``BENCHMARK.json``
names, with its unit, as the last line; the negative cases show that
an output differing from its reference fails the run (exit code 1,
``correct`` false) instead of counting as a failed operation.
"""

import json
import os
import tempfile

import pytest

import inproc
import run
import serving

WORKLOADS = ("study_cold", "recheck_edit", "serve", "serve_sharded")


@pytest.fixture
def tiny(monkeypatch):
    # run.main points these at its run directory; restore them after
    for name in ("REPRO_KB_CACHE_DIR", "TMPDIR", "PYTHONPATH"):
        if name in os.environ:
            monkeypatch.setenv(name, os.environ[name])
        else:
            monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    for name, value in {"STUDY_APPS": 40, "TRACE_STUDY_APPS": 30,
                        "RECHECK_APPS": 40,
                        "TRACE_ROUNDS": 1, "P99_SAMPLES": 20,
                        "PROBE_REPEATS": 1, "PRIME_REPEATS": 1}.items():
        monkeypatch.setattr(inproc, name, value)
    for name, value in {"WINDOW": 40, "WARMUP": 2, "TRACE_REQUESTS": 12,
                        "STREAM": 400, "P99_SAMPLES": 20,
                        "SETUP_REPEATS": 1}.items():
        monkeypatch.setattr(serving, name, value)


def _bench(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "0", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def _expected(trace):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload,
                                               trace):
    code, doc = _bench(capsys, workload, trace)
    assert code == 0
    assert doc["correct"] is True
    assert doc["attempted"] >= 1 and doc["failed"] == 0
    assert {name: m["unit"] for name, m in doc["metrics"].items()} \
        == _expected(trace)
    assert all(isinstance(m["value"], (int, float))
               for m in doc["metrics"].values())


def test_traced_counts_repeat_exactly(tiny, capsys):
    exact = ("corpus.apps", "hashing.renders_per_check",
             "android.analyze_apk_calls") + tuple(
        f"pipeline.{stage}.{kind}"
        for stage in ("policy_analysis", "static_analysis",
                      "description_permissions", "lib_policy_analysis",
                      "detect")
        for kind in ("executions", "hits"))
    runs = [_bench(capsys, "study_cold", trace=1)[1] for _ in range(2)]
    for name in exact:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name


def test_recheck_edit_never_runs_static_analysis(tiny, capsys):
    _, doc = _bench(capsys, "recheck_edit", trace=1)
    assert doc["metrics"]["android.analyze_apk_calls"]["value"] == 0
    assert doc["metrics"]["pipeline.policy_analysis.executions"][
        "value"] > 0


def test_wrong_study_tables_fail_the_run(tiny, capsys, monkeypatch):
    monkeypatch.setattr(inproc, "recorded_digest",
                        lambda seed, apps: "0" * 64)
    code, doc = _bench(capsys, "study_cold")
    assert code == 1
    assert doc["correct"] is False and doc["failed"] == 0


def test_wrong_recheck_report_fails_the_run(tiny, capsys, monkeypatch):
    original = inproc._run_round

    def tampered(*args, **kwargs):
        busy, edited, reports = original(*args, **kwargs)
        next(iter(reports.values())).package += ".tampered"
        return busy, edited, reports

    monkeypatch.setattr(inproc, "_run_round", tampered)
    code, doc = _bench(capsys, "recheck_edit")
    assert code == 1
    assert doc["correct"] is False and doc["failed"] == 0


def test_wrong_response_body_fails_the_run(tiny, capsys, monkeypatch):
    original = serving.Client.run

    def tampered(self, *args, **kwargs):
        phase = original(self, *args, **kwargs)
        for index, bodies in phase.bodies.items():
            phase.bodies[index] = {body.replace(b'"package"', b'"pkg"')
                                   for body in bodies}
            break
        return phase

    monkeypatch.setattr(serving.Client, "run", tampered)
    code, doc = _bench(capsys, "serve")
    assert code == 1
    assert doc["correct"] is False and doc["failed"] == 0


def test_refuses_env_that_changes_the_program(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_NO_MEMO", "1")
    assert run.main(["--workload", "serve"]) == 2
    assert "REPRO_NO_MEMO" in capsys.readouterr().err
