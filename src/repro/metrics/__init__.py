"""Measurement instruments for experiments and benchmarks."""

from .counters import Counter, Gauge
from .histogram import LatencyHistogram
from .registry import MetricsRegistry
from .timeseries import BucketSeries

__all__ = [
    "BucketSeries",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
]
