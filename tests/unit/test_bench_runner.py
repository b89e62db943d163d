"""Smoke tests for the benchmark harness (tiny durations).

These validate the measurement plumbing — warmup windows, counters,
labels — not the figures themselves (the benchmarks do that at full
scale).
"""

import pytest

from repro.bench import (
    run_coordinator_failure_timeseries,
    run_lcr_point,
    run_mencius_point,
    run_multiring_point,
    run_partitioned_single_ring_point,
    run_single_ring_point,
    run_spread_point,
    run_two_ring_parameter_point,
    run_two_ring_timeseries,
)
from repro.workload import ConstantRate

FAST = dict(duration=0.4, warmup=0.2)


def test_single_ring_point_measures_window_only():
    r = run_single_ring_point(200, durable=False, **FAST)
    assert r.label == "In-memory Ring Paxos"
    assert r.delivered_mbps == pytest.approx(200, rel=0.1)
    assert 0 < r.latency_ms < 5
    assert 0 < r.cpu_pct < 100
    assert r.extra["disk_util_pct"] == 0.0


def test_single_ring_point_durable_label_and_disk():
    r = run_single_ring_point(100, durable=True, **FAST)
    assert r.label == "Recoverable Ring Paxos"
    assert r.extra["disk_util_pct"] > 0


def test_multiring_point_single_group_learners():
    r = run_multiring_point(2, durable=False, window=16, **FAST)
    assert "RAM M-RP x2" in r.label
    assert r.delivered_mbps > 800  # two rings at capacity
    assert r.msgs_per_s > 10_000
    assert r.extra["coordinator_cpu_pct"] > 50


def test_multiring_point_subscribe_all():
    r = run_multiring_point(2, durable=False, subscribe_all=True, window=16, **FAST)
    assert "(all-groups learner)" in r.label
    assert r.extra["learner_ingress_pct"] > 50


def test_partitioned_point_extra_fields():
    r = run_partitioned_single_ring_point(2, window=16, **FAST)
    assert r.extra["per_partition_mbps"] == pytest.approx(r.delivered_mbps / 2)


def test_lcr_point():
    r = run_lcr_point(3, window=8, **FAST)
    assert r.label == "LCR x3"
    assert r.delivered_mbps > 300
    assert r.msgs_per_s > 0


def test_spread_point():
    r = run_spread_point(2, window=8, **FAST)
    assert r.label == "Spread x2"
    assert r.delivered_mbps > 50


def test_mencius_point():
    r = run_mencius_point(3, window=8, **FAST)
    assert r.label == "Mencius x3"
    assert r.delivered_mbps > 200


def test_two_ring_parameter_point():
    r = run_two_ring_parameter_point(100, **FAST)
    assert r.delivered_mbps == pytest.approx(100, rel=0.2)
    assert "learner_cpu_pct" in r.extra


def test_two_ring_timeseries_shapes():
    res = run_two_ring_timeseries(
        (ConstantRate(200), ConstantRate(200)), lambda_rate=2000.0, duration=3.0
    )
    assert set(res.multicast_mbps) == {0, 1}
    assert len(res.delivered_mbps) == 3  # one point per 1 s bucket
    assert not res.extra["halted"]
    total = sum(v for _, v in res.delivered_mbps)
    assert total > 0


def test_failure_timeseries_marks_events():
    res = run_coordinator_failure_timeseries(
        rate_msgs_per_s=500.0, fail_at=2.0, restart_after=1.0, duration=6.0, window=500
    )
    assert res.extra["fail_at"] == 2.0
    assert res.extra["restart_at"] == 3.0
    delivered = dict((round(t), v) for t, v in res.delivered_mbps)
    assert delivered[1] > 0
    assert delivered[2] < delivered[1] * 0.5  # the outage is visible


def test_population_point_reports_quantiles_and_cdf():
    from repro.bench.clients import run_population_point

    r = run_population_point(
        n_sessions=20_000, rate=400.0, duration=0.3, warmup=0.1, seed=2
    )
    assert r.msgs_per_s > 0
    assert r.extra["completions"] > 0
    assert 0 < r.extra["p50_ms"] <= r.extra["p99_ms"] <= r.extra["p999_ms"]
    cdf = r.extra["cdf_ms"]
    assert len(cdf) == 10 and cdf[-1][1] == 1.0
    assert [q for _, q in cdf] == sorted(q for _, q in cdf)
    # Deterministic: the same spec reproduces the identical result row.
    again = run_population_point(
        n_sessions=20_000, rate=400.0, duration=0.3, warmup=0.1, seed=2
    )
    assert again.extra == r.extra and again.msgs_per_s == r.msgs_per_s


def test_population_point_overload_scenario_sheds():
    from repro.bench.clients import run_population_point

    r = run_population_point(
        n_sessions=5_000, rate=1200.0, duration=0.4, warmup=0.1, seed=2,
        admission_inflight=8, admission_queue=16,
        crash_coordinator_at=0.2, restart_coordinator_at=0.35,
    )
    assert r.extra["shed"] + r.extra["delayed"] > 0
    assert r.extra["retries"] > 0
