"""Tests of the benchmark's own checks and statistics.

    python3 -m pytest perfbench/test_perfbench.py -q

Each correctness check must accept the answer the library computes and
reject that answer perturbed; the statistics must match their
definitions.
"""

from __future__ import annotations

import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import compare  # noqa: E402
import stats  # noqa: E402
from repro.service.config import NamespaceConfig  # noqa: E402
from workloads import HistoryReads, Recorder  # noqa: E402

START = datetime(2024, 3, 1, tzinfo=timezone.utc)
PAIR = ["bytes", "packets"]


def batch(rng, keys, size):
    picks = rng.choice(len(keys), size=size)
    return ([keys[i] for i in picks],
            {"bytes": rng.uniform(1, 100, size),
             "packets": rng.uniform(1, 10, size)})


@pytest.fixture(scope="module")
def control():
    """Six stored minute buckets and a live window, 40 keys, k = 64."""
    rng = np.random.default_rng(5)
    data = checks.NamespaceData(
        NamespaceConfig("control", tuple(PAIR), k=64), "20261018")
    for minute in range(6):
        keys = [1000 * minute + i for i in range(5)]
        data.stored[checks.utc_minute(START, minute)] = [
            batch(rng, keys, 12)]
    data.live = [batch(rng, [90_000 + i for i in range(10)], 25)]
    return data


def requests():
    first, last = (checks.utc_minute(START, m) for m in (0, 5))
    end = START.timestamp() + 360
    est = {"kind": "estimate", "namespace": "control"}
    return [
        {**est, "function": "max", "assignments": PAIR},
        {**est, "function": "l1", "assignments": PAIR, "since": first,
         "until": checks.utc_minute(START, 2)},
        {**est, "function": "single", "assignments": ["bytes"],
         "keys": [0, 1, 1000, 90_001]},
        {"kind": "jaccard", "namespace": "control", "assignments": PAIR},
        {**est, "function": "min", "assignments": PAIR, "window": "2m",
         "step": "1m", "since": first, "until": last},
        {**est, "function": "max", "assignments": PAIR, "decay": "3m",
         "anchor": end, "since": first, "until": last},
    ]


def perturbed(values, factor):
    return [None if v is None else v * factor for v in values]


@pytest.mark.parametrize("request_index", range(6))
def test_identity_accepts_the_library_answer_and_rejects_one_ulp(
        control, request_index):
    request = requests()[request_index]
    served = checks.offline_values(control, request)
    assert checks.identical(served, checks.offline_values(control, request))
    nudged = [None if v is None else float(np.nextafter(v, np.inf))
              for v in served]
    assert not checks.identical(nudged, served)


@pytest.mark.parametrize("request_index", range(6))
def test_exactness_accepts_full_samples_and_rejects_a_small_error(
        control, request_index):
    request = requests()[request_index]
    served = checks.offline_values(control, request)
    exact = checks.exact_values(control, request)
    assert checks.close(served, exact)
    assert not checks.close(perturbed(served, 1 + 1e-7), exact)


def test_window_rows_must_match_in_number_and_emptiness(control):
    request = requests()[4]
    exact = checks.exact_values(control, request)
    assert len(exact) > 1
    assert not checks.close(exact[:-1], exact)
    assert not checks.identical([None] + exact[1:], exact)


def test_served_values_reads_estimates_and_window_rows():
    assert checks.served_values({"estimate": 2.5}) == [2.5]
    rows = {"windows": [{"estimate": 1.0}, {"estimate": None,
                                             "empty": True}]}
    assert checks.served_values(rows) == [1.0, None]


def test_a_wrong_answer_counts_as_a_failed_operation():
    rec = Recorder()
    rec.verify("fine", True)
    rec.verify("perturbed", False)
    assert rec.failed == 1 and rec.wrong == ["perturbed"]


def test_history_query_list_is_fixed_by_the_seed():
    a, b = HistoryReads(3, 20), HistoryReads(3, 20)
    assert a.queries == b.queries and a.batches[0][0] == b.batches[0][0]
    assert HistoryReads(4, 20).batches[0][0] != a.batches[0][0]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert stats.tail(range(39)) is None
    value, pct = stats.tail(range(40))
    assert value == 29 and pct == 75.0
    value, pct = stats.tail(range(400))
    assert value == 389 and pct == 97.5


def test_quartiles_match_the_statistics_module():
    import statistics

    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5]
    q1, q2, q3 = stats.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [x * 1.3 for x in base], "lower",
                           0.1) == "worse"
    assert compare.verdict(base, [x * 0.7 for x in base], "lower",
                           0.1) == "better"
    assert compare.verdict(base, base, "lower", 0.1) == "unchanged"
    noisy = [50.0, 150.0, 100.0, 80.0, 120.0]
    assert compare.verdict(base, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(base, [x * 0.7 for x in base], "higher",
                           0.1) == "worse"
    # both sides wider than the bound: a clean separation against the
    # change is a host shift as likely as a regression
    wide = [80.0, 90.0, 100.0, 110.0, 120.0]
    assert compare.verdict(wide, [x * 1.05 + 50 for x in wide], "lower",
                           0.1) == "unresolved"
    assert compare.verdict(wide, [x * 0.5 - 25 for x in wide], "lower",
                           0.1) == "better"


def test_span_arithmetic_of_the_traced_run():
    import layers

    assert layers._covered([(1.0, 3.0), (2.0, 4.0), (6.0, 9.0)],
                           0.0, 7.0) == 4.0
    spans = [
        # id, parent, name, root, start, end, attrs
        [1, None, "windows.ingest", "windows.ingest", 10.0, 10.5, None],
        [2, 1, "engine.ingest", "windows.ingest", 10.3, 10.4,
         {"events": 8}],
        [3, None, "planner.estimate", "planner.estimate", 11.0, 11.2, None],
        [4, None, "windows.ingest", "windows.ingest", 99.0, 99.1, None],
    ]
    trace = layers.Trace({"worker": {"spans": spans}}, (0.0, 50.0))
    assert trace.count("windows.ingest") == 1  # starts outside the phase
    assert trace.self_ms("windows.ingest") == pytest.approx(400.0)
    assert trace.attr_sum("engine.ingest", "events") == 8
    intervals = [("/ingest", 9.9, 10.6), ("/query", 10.9, 11.3)]
    assert trace.uncovered_ms("worker", "/ingest", intervals) == (
        pytest.approx(200.0))
    assert trace.uncovered_ms("worker", "/query", intervals) == (
        pytest.approx(200.0))
