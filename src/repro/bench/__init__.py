"""The benchmark harness: experiment runners and report formatting.

One runner per experiment family (steady-state points and time series);
the ``benchmarks/`` directory contains one pytest-benchmark module per
paper figure, each of which calls into this package and prints the rows
the figure reports. Wall-clock measurement lives outside this package,
in the repo benchmark (``benchmarks/e2e``, ``BENCHMARK.json``).
"""

from .report import emit, format_table, series_to_rows
from .runner import (
    PointResult,
    SeriesResult,
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

__all__ = [
    "PointResult",
    "SeriesResult",
    "emit",
    "format_table",
    "run_coordinator_failure_timeseries",
    "run_lcr_point",
    "run_mencius_point",
    "run_multiring_point",
    "run_partitioned_single_ring_point",
    "run_single_ring_point",
    "run_spread_point",
    "run_two_ring_parameter_point",
    "run_two_ring_timeseries",
    "series_to_rows",
]
