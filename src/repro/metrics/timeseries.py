"""Bucketed time series for throughput/latency-over-time figures.

Figures 9-12 of the paper plot per-second multicast rate, delivery
throughput, and latency against the experiment timeline. A
:class:`BucketSeries` accumulates (time, amount) observations into fixed
buckets.
"""

from __future__ import annotations

__all__ = ["BucketSeries"]


class BucketSeries:
    """Sums observations into fixed-width time buckets.

    >>> s = BucketSeries(bucket_width=1.0)
    >>> s.record(0.2, 10); s.record(0.9, 5); s.record(1.1, 7)
    >>> s.bucket_totals()[0], s.bucket_totals()[1]
    (15.0, 7.0)
    """

    def __init__(self, bucket_width: float = 1.0, name: str = "series") -> None:
        if not bucket_width > 0:  # written so that NaN is rejected too
            raise ValueError("bucket width must be positive")
        self.bucket_width = bucket_width
        self.name = name
        self._buckets: dict[int, float] = {}
        self._counts: dict[int, int] = {}

    def record(self, time: float, amount: float = 1.0) -> None:
        """Add ``amount`` to the bucket containing ``time``."""
        idx = int(time / self.bucket_width)
        self._buckets[idx] = self._buckets.get(idx, 0.0) + amount
        self._counts[idx] = self._counts.get(idx, 0) + 1

    def bucket_totals(self) -> dict[int, float]:
        """Mapping bucket-index -> summed amount (sparse; copy)."""
        return dict(self._buckets)

    def rate_at(self, time: float) -> float:
        """Summed amount per second in the bucket containing ``time``."""
        idx = int(time / self.bucket_width)
        return self._buckets.get(idx, 0.0) / self.bucket_width

    def mean_at(self, time: float) -> float:
        """Average per-observation amount in the bucket containing ``time``."""
        idx = int(time / self.bucket_width)
        count = self._counts.get(idx, 0)
        if count == 0:
            return 0.0
        return self._buckets[idx] / count

    def series(self, start: float, end: float) -> list[tuple[float, float]]:
        """Dense list of (bucket start time, rate per second) over a span."""
        first = int(start / self.bucket_width)
        last = int(end / self.bucket_width)
        return [
            (idx * self.bucket_width, self._buckets.get(idx, 0.0) / self.bucket_width)
            for idx in range(first, last)
        ]

    def mean_series(self, start: float, end: float) -> list[tuple[float, float]]:
        """Dense list of (bucket start time, mean observation) over a span."""
        first = int(start / self.bucket_width)
        last = int(end / self.bucket_width)
        out = []
        for idx in range(first, last):
            count = self._counts.get(idx, 0)
            mean = self._buckets.get(idx, 0.0) / count if count else 0.0
            out.append((idx * self.bucket_width, mean))
        return out

