"""Unit tests for metrics instruments."""

import pytest

from repro.metrics import (
    BucketSeries,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
)


# ---------------------------------------------------------------------------
# Counter / Gauge
# ---------------------------------------------------------------------------
def test_counter_increments():
    c = Counter("c")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter().inc(-1)


def test_counter_rejects_nan_and_keeps_its_value():
    c = Counter()
    c.inc(2.0)
    for bad in (float("nan"), -1.0):
        with pytest.raises(ValueError):
            c.inc(bad)
    assert c.value == 2.0


def test_gauge_set_and_add():
    g = Gauge("g", 10.0)
    g.add(-3.0)
    g.set(5.0)
    assert g.value == 5.0


def test_value_is_a_writable_field_and_nothing_else_is():
    c, g = Counter("c"), Gauge("g")
    c.value += 1
    c.inc(0.5)
    g.value = 7
    g.add(1)
    assert (c.value, g.value) == (1.5, 8)
    for metric in (c, g):
        assert not hasattr(metric, "__dict__")
        with pytest.raises(AttributeError):
            metric.valeu = 1


# ---------------------------------------------------------------------------
# LatencyHistogram
# ---------------------------------------------------------------------------
def test_histogram_mean():
    h = LatencyHistogram()
    for v in [1.0, 2.0, 3.0]:
        h.record(v)
    assert h.mean == pytest.approx(2.0)
    assert h.count == 3


def test_histogram_trimmed_mean_drops_top_tail():
    h = LatencyHistogram()
    for _ in range(95):
        h.record(1.0)
    for _ in range(5):
        h.record(100.0)  # disk-flush spikes
    assert h.trimmed_mean(0.05) == pytest.approx(1.0)
    assert h.mean > 1.0


def test_histogram_percentiles():
    h = LatencyHistogram()
    for v in range(1, 101):
        h.record(float(v))
    assert h.percentile(0) == 1.0
    assert h.percentile(100) == 100.0
    assert h.percentile(50) == pytest.approx(50.5)


def test_histogram_empty_is_safe():
    h = LatencyHistogram()
    assert h.mean == 0.0
    assert h.trimmed_mean() == 0.0
    assert h.percentile(99) == 0.0
    assert h.max == 0.0


def test_histogram_rejects_bad_input():
    h = LatencyHistogram()
    with pytest.raises(ValueError):
        h.record(-1.0)
    with pytest.raises(ValueError):
        h.trimmed_mean(1.0)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_histogram_rejects_nan_and_keeps_its_statistics():
    h = LatencyHistogram()
    for v in (1.0, 2.0, 3.0):
        h.record(v)
    with pytest.raises(ValueError):
        h.record(float("nan"))
    assert h.count == 3
    assert h.mean == pytest.approx(2.0)
    assert h.percentile(50) == 2.0 and h.max == 3.0


def test_histogram_decimation_keeps_mean_exact():
    h = LatencyHistogram(max_samples=100)
    for v in range(1000):
        h.record(float(v % 10))
    assert h.count == 1000
    assert h.mean == pytest.approx(4.5)
    assert len(h._samples) <= 100


# ---------------------------------------------------------------------------
# BucketSeries
# ---------------------------------------------------------------------------
def test_bucket_series_accumulates():
    s = BucketSeries(bucket_width=1.0)
    s.record(0.2, 10)
    s.record(0.9, 5)
    s.record(1.1, 7)
    assert s.rate_at(0.5) == pytest.approx(15.0)
    assert s.rate_at(1.5) == pytest.approx(7.0)
    assert s.rate_at(9.0) == 0.0


@pytest.mark.parametrize("bad", [float("nan"), 0.0, -1.0])
def test_bucket_series_rejects_a_bad_width_at_construction(bad):
    with pytest.raises(ValueError):
        BucketSeries(bucket_width=bad)


def test_bucket_series_mean():
    s = BucketSeries(bucket_width=1.0)
    s.record(0.1, 2.0)
    s.record(0.2, 4.0)
    assert s.mean_at(0.5) == pytest.approx(3.0)
    assert s.mean_at(5.0) == 0.0


def test_bucket_series_dense_series():
    s = BucketSeries(bucket_width=1.0)
    s.record(0.5, 1.0)
    s.record(2.5, 3.0)
    dense = s.series(0.0, 3.0)
    assert dense == [(0.0, 1.0), (1.0, 0.0), (2.0, 3.0)]


def test_bucket_series_subsecond_buckets():
    s = BucketSeries(bucket_width=0.1)
    s.record(0.05, 1.0)
    assert s.rate_at(0.05) == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# MetricsRegistry
# ---------------------------------------------------------------------------
def test_registry_get_or_create_identity():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    assert reg.histogram("h") is reg.histogram("h")
    assert reg.gauge("g") is reg.gauge("g")
    assert reg.series("s") is reg.series("s")


def test_registry_names_sorted():
    reg = MetricsRegistry()
    reg.counter("b")
    reg.gauge("a")
    assert reg.names() == ["a", "b"]


def test_histogram_trimmed_mean_of_identical_samples_is_exact():
    # Regression: accumulating many identical floats lost ulps, so the
    # trimmed mean of N copies of x came out (one ulp) below x.
    h = LatencyHistogram()
    x = 0.0013877787807814457  # an awkward binary fraction
    for _ in range(10_001):
        h.record(x)
    assert h.trimmed_mean(0.05) == x
    assert h.mean == pytest.approx(x, rel=1e-15)
    assert min(x, x) <= h.trimmed_mean(0.05) <= h.mean + 1e-9


def test_histogram_trimmed_mean_clamped_to_kept_range():
    h = LatencyHistogram()
    for v in [1.0, 2.0, 3.0, 1000.0]:
        h.record(v)
    t = h.trimmed_mean(0.25)  # drops the 1000.0 spike
    assert 1.0 <= t <= 3.0
    assert t == pytest.approx(2.0)


def test_histogram_decimation_percentiles_stay_representative():
    h = LatencyHistogram(max_samples=128)
    for v in range(10_000):
        h.record(float(v % 100))
    # Decimation halves the retained samples repeatedly; the quantiles of
    # the stationary 0..99 stream must survive it.
    assert len(h._samples) <= 128
    assert h.percentile(50) == pytest.approx(49.5, abs=6.0)
    assert 90.0 <= h.percentile(99) <= 99.0
    assert h.trimmed_mean(0.05) <= h.mean + 1e-9


# ---------------------------------------------------------------------------
# Labeled metrics
# ---------------------------------------------------------------------------
def test_registry_labels_separate_metrics():
    reg = MetricsRegistry()
    a = reg.counter("delivered", ring=0)
    b = reg.counter("delivered", ring=1)
    assert a is not b
    a.inc(3)
    assert reg.counter("delivered", ring=0).value == 3
    assert reg.counter("delivered", ring=1).value == 0


def test_registry_child_shares_store_with_preset_labels():
    reg = MetricsRegistry()
    ring2 = reg.child(ring=2)
    ring2.counter("delivered").inc(5)
    assert reg.counter("delivered", ring=2).value == 5
    # Nested children merge labels.
    coord = ring2.child(role="coordinator")
    assert coord.labels == {"ring": 2, "role": "coordinator"}
    coord.gauge("backlog").set(7)
    assert reg.gauge("backlog", ring=2, role="coordinator").value == 7


def test_registry_full_names_include_labels():
    reg = MetricsRegistry()
    reg.counter("x")
    reg.counter("x", ring=1)
    names = reg.names()
    assert "x" in names
    assert "x{ring=1}" in names


def test_registry_snapshot_rows():
    reg = MetricsRegistry()
    reg.counter("c", ring=0).inc(2)
    reg.histogram("h").record(1.0)
    reg.series("s", bucket_width=1.0).record(0.5, 10.0)
    rows = {(r["kind"], r["metric"]): r for r in reg.snapshot()}
    assert rows[("counter", "c")]["value"] == 2
    assert rows[("counter", "c")]["labels"] == {"ring": "0"}
    assert rows[("histogram", "h")]["count"] == 1
    assert rows[("histogram", "h")]["mean"] == pytest.approx(1.0)
    assert rows[("series", "s")]["total"] == pytest.approx(10.0)


def test_registry_collect_yields_label_dicts():
    reg = MetricsRegistry()
    reg.child(ring=3, role="learner").counter("delivered").inc()
    [(kind, name, labels, metric)] = list(reg.collect())
    assert (kind, name) == ("counter", "delivered")
    assert labels == {"ring": "3", "role": "learner"}
    assert metric.value == 1


# ---------------------------------------------------------------------------
# Batched quantiles and CDF export
# ---------------------------------------------------------------------------
def _reference_quantile(samples, q):
    """Sorted-array linear-interpolation quantile (numpy's default)."""
    ordered = sorted(samples)
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def test_quantiles_match_reference_implementation():
    import random

    rng = random.Random(13)
    samples = [rng.expovariate(20.0) for _ in range(1001)]
    h = LatencyHistogram()
    for s in samples:
        h.record(s)
    qs = [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0]
    got = h.quantiles(qs)
    want = [_reference_quantile(samples, q) for q in qs]
    assert got == pytest.approx(want)
    assert got == sorted(got)  # quantiles are monotone in q


def test_quantiles_consistent_with_percentile():
    h = LatencyHistogram()
    for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
        h.record(v)
    assert h.quantiles([0.5, 0.99, 0.999]) == [
        h.percentile(50), h.percentile(99), h.percentile(99.9)
    ]
    assert h.quantiles([0.0, 1.0]) == [1.0, 5.0]


def test_quantiles_validation_and_empty():
    h = LatencyHistogram()
    assert h.quantiles([0.5, 0.99]) == [0.0, 0.0]
    with pytest.raises(ValueError):
        h.quantiles([1.5])
    h.record(1.0)
    assert h.quantiles([0.25, 0.75]) == [1.0, 1.0]


def test_cdf_export_shape_and_reference():
    h = LatencyHistogram()
    samples = list(range(1, 101))  # 1..100
    for v in samples:
        h.record(float(v))
    cdf = h.cdf(points=10)
    assert len(cdf) == 10
    values = [v for v, _ in cdf]
    fractions = [f for _, f in cdf]
    assert fractions == pytest.approx([0.1 * (i + 1) for i in range(10)])
    assert values == pytest.approx(
        [_reference_quantile(samples, f) for f in fractions]
    )
    assert cdf[-1] == (100.0, 1.0)  # the last point is the max sample


def test_cdf_empty_and_validation():
    h = LatencyHistogram()
    assert h.cdf() == []
    with pytest.raises(ValueError):
        h.cdf(points=0)
