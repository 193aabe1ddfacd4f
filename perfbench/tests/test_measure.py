"""The percentile helper and the ``/metrics`` parsing and deltas."""

import pytest

from measure import (
    by_label, merge, metrics_delta, parse_prometheus, percentile,
    samples_for, tail_percentile, total,
)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(10000) == 99.9
    assert tail_percentile(200) == 95.0
    assert tail_percentile(199) == 90.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None


@pytest.mark.parametrize("p", [50.0, 90.0, 95.0, 99.0, 99.9])
def test_samples_for_is_the_smallest_count(p):
    n = samples_for(p)
    assert tail_percentile(n) >= p
    assert tail_percentile(n - 1) is None or tail_percentile(n - 1) < p


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile(list(reversed(values)), 100.0) == 100
    assert percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


EXPOSITION = """\
# HELP ppchecker_requests_total HTTP requests served.
# TYPE ppchecker_requests_total counter
ppchecker_requests_total{endpoint="/v1/check",status="200"} 12
ppchecker_requests_total{endpoint="/healthz",status="200"} 3
ppchecker_jobs_coalesced_total 4
ppchecker_stage_latency_seconds_sum{stage="detect"} 0.25
ppchecker_nlp_cache_hits{cache="nlp_parse"} 1.5e3
odd_label{path="a \\"quoted\\" \\\\ value"} 1
"""


def test_parse_prometheus_reads_samples_and_labels():
    samples = parse_prometheus(EXPOSITION)
    key = ("ppchecker_requests_total",
           (("endpoint", "/v1/check"), ("status", "200")))
    assert samples[key] == 12.0
    assert samples[("ppchecker_jobs_coalesced_total", ())] == 4.0
    assert total(samples, "ppchecker_nlp_cache_hits",
                 cache="nlp_parse") == 1500.0
    assert samples[("odd_label", (("path", 'a "quoted" \\ value'),))] == 1.0
    assert total(samples, "ppchecker_requests_total") == 15.0
    assert total(samples, "ppchecker_requests_total",
                 endpoint="/healthz") == 3.0
    assert by_label(samples, "ppchecker_requests_total",
                    "endpoint") == {"/v1/check": 12.0, "/healthz": 3.0}


def test_parse_prometheus_rejects_garbage():
    with pytest.raises(ValueError):
        parse_prometheus("this is not a sample line at all {")


def test_delta_counts_new_children_from_zero():
    before = parse_prometheus('a{x="1"} 5\nb 2\n')
    after = parse_prometheus('a{x="1"} 8\na{x="2"} 4\nb 2\n')
    delta = metrics_delta(before, after)
    assert total(delta, "a", x="1") == 3.0
    assert total(delta, "a", x="2") == 4.0
    assert total(delta, "b") == 0.0


def test_merge_sums_shards():
    one = parse_prometheus('jobs{status="ok"} 2\n')
    two = parse_prometheus('jobs{status="ok"} 3\nother 1\n')
    merged = merge(one, two)
    assert total(merged, "jobs", status="ok") == 5.0
    assert total(merged, "other") == 1.0
