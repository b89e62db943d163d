"""Latency distribution tracking.

The paper reports average delivery latency *after discarding the 5%
highest values* (Section VI-A, to remove disk-flush spikes), plus full
latency-vs-throughput curves. :class:`LatencyHistogram` supports exactly
those reductions.
"""

from __future__ import annotations

import math

__all__ = ["LatencyHistogram"]


class LatencyHistogram:
    """Collects individual samples; computes means, trimmed means, quantiles.

    Samples are kept exactly (simulation runs produce at most a few million
    samples, comfortably in memory); ``max_samples`` switches to uniform
    reservoir-free decimation by simply recording every k-th sample once
    the cap is hit, which preserves quantiles of stationary streams.
    """

    def __init__(self, name: str = "latency", max_samples: int = 2_000_000) -> None:
        self.name = name
        self.max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self._total_comp = 0.0  # Neumaier compensation term for ``total``
        self._samples: list[float] = []
        self._stride = 1

    def record(self, value: float) -> None:
        """Add one sample (seconds, or any non-negative quantity)."""
        if not value >= 0:  # written so that NaN is rejected too
            raise ValueError("latency samples must be non-negative")
        self.count += 1
        # Compensated (Neumaier) running sum: a naive ``total += value``
        # loses low-order bits, enough to push the mean of identical
        # samples below the sample value itself.
        t = self.total + value
        if abs(self.total) >= abs(value):
            self._total_comp += (self.total - t) + value
        else:
            self._total_comp += (value - t) + self.total
        self.total = t
        if self.count % self._stride == 0:
            self._samples.append(value)
            if len(self._samples) >= self.max_samples:
                # Decimate: keep every other retained sample, double stride.
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        """Arithmetic mean of all recorded samples (0.0 when empty)."""
        return (self.total + self._total_comp) / self.count if self.count else 0.0

    def trimmed_mean(self, discard_top_fraction: float = 0.05) -> float:
        """Mean after dropping the highest ``discard_top_fraction`` samples.

        This is the latency statistic the paper reports (top 5% removed).
        The result is exactly summed (``math.fsum``) and clamped to the
        range of the kept samples, so identical samples always yield that
        sample value rather than one ulp below it.
        """
        if not 0.0 <= discard_top_fraction < 1.0:
            raise ValueError("discard fraction must be in [0, 1)")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        keep = max(1, math.ceil(len(ordered) * (1.0 - discard_top_fraction)))
        kept = ordered[:keep]
        result = math.fsum(kept) / len(kept)
        return min(max(result, kept[0]), kept[-1])

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0 <= p <= 100) of retained samples."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        return self.quantiles([p / 100.0])[0]

    def quantiles(self, qs: list[float]) -> list[float]:
        """Values at fractional ranks ``qs`` (each in [0, 1]), one sort total.

        Linear interpolation between closest ranks (numpy's default), so
        ``quantiles([p / 100])[0] == percentile(p)``. The batched form is
        what the client-latency reports use: p50/p99/p999 from a single
        sort instead of one sort per percentile.
        """
        if any(not 0.0 <= q <= 1.0 for q in qs):
            raise ValueError("quantile fractions must be in [0, 1]")
        if not self._samples:
            return [0.0] * len(qs)
        ordered = sorted(self._samples)
        top = len(ordered) - 1
        out = []
        for q in qs:
            rank = q * top
            lo = int(math.floor(rank))
            hi = int(math.ceil(rank))
            if lo == hi:
                out.append(ordered[lo])
            else:
                frac = rank - lo
                out.append(ordered[lo] * (1 - frac) + ordered[hi] * frac)
        return out

    def cdf(self, points: int = 20) -> list[tuple[float, float]]:
        """An empirical CDF as ``points`` evenly spaced (value, fraction) pairs.

        Fractions run ``1/points, 2/points, ..., 1.0``; each value is the
        corresponding quantile of the retained samples, so plotting the
        pairs (value on x, fraction on y) gives the latency CDF the client
        experiments report. Empty histogram yields an empty list.
        """
        if points < 1:
            raise ValueError("points must be at least 1")
        if not self._samples:
            return []
        fractions = [(i + 1) / points for i in range(points)]
        return list(zip(self.quantiles(fractions), fractions))

    @property
    def max(self) -> float:
        """Largest retained sample (0.0 when empty)."""
        return max(self._samples) if self._samples else 0.0

    def __repr__(self) -> str:
        return f"<LatencyHistogram {self.name} n={self.count} mean={self.mean:.6f}>"
