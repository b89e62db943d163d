"""Offered-load schedules for the evaluation's workloads.

The λ experiments drive proposers with three shapes (Sections VI-E):
constant equal rates stepped up every 20 seconds (Figure 9), constant
2:1-skewed rates (Figure 10), and oscillating rates with a 2:1 average
skew (Figure 11). All are expressible as a :class:`RateSchedule`.
"""

from __future__ import annotations

import bisect
import math
from typing import Protocol

__all__ = [
    "RateSchedule",
    "ConstantRate",
    "StepRate",
    "ScaledRate",
    "ModulatedRate",
    "next_change_after",
]


class RateSchedule(Protocol):
    """Messages per second as a function of simulated time."""

    def rate_at(self, t: float) -> float:
        """Offered rate (msg/s) at time ``t``."""
        ...  # pragma: no cover - protocol definition


def next_change_after(schedule: RateSchedule, t: float) -> float | None:
    """The next time after ``t`` at which ``schedule``'s rate may change.

    ``None`` means "no known future transition" — either the schedule is
    genuinely constant (:class:`ConstantRate`, an exhausted
    :class:`StepRate`) or it varies continuously (the sinusoid of a
    :class:`ModulatedRate` over a constant base), where there is no discrete transition to
    wake at. Callers idling on a zero rate should wake exactly at the
    returned time, and fall back to polling with backoff on ``None``.

    Schedules advertise transitions via an optional ``next_change_after``
    method; this helper tolerates third-party schedules that only
    implement the :class:`RateSchedule` protocol.
    """
    probe = getattr(schedule, "next_change_after", None)
    if probe is None:
        return None
    return probe(t)


class ConstantRate:
    """A fixed rate forever."""

    def __init__(self, rate: float) -> None:
        if not rate >= 0:  # written so that NaN is rejected too
            raise ValueError("rate must be non-negative")
        self.rate = rate

    def rate_at(self, t: float) -> float:
        return self.rate

    def next_change_after(self, t: float) -> float | None:
        return None


class StepRate:
    """Piecewise-constant rate: ``steps`` is [(start_time, rate), ...].

    Used for the "increase the multicast rate every 20 seconds" pattern of
    Figures 9-11. Times must be ascending; rate before the first step is 0.
    """

    def __init__(self, steps: list[tuple[float, float]]) -> None:
        if not steps:
            raise ValueError("need at least one step")
        times = [t for t, _ in steps]
        if times != sorted(times) or any(t != t for t in times):  # or NaN
            raise ValueError("step times must be ascending")
        if any(not r >= 0 for _, r in steps):
            raise ValueError("rates must be non-negative")
        self.steps = list(steps)
        self._times = times

    def rate_at(self, t: float) -> float:
        rate = 0.0
        for start, step_rate in self.steps:
            if t >= start:
                rate = step_rate
            else:
                break
        return rate

    def next_change_after(self, t: float) -> float | None:
        idx = bisect.bisect_right(self._times, t)
        return self._times[idx] if idx < len(self._times) else None


class ScaledRate:
    """Wrap another schedule and scale it by a constant factor.

    Handy for the 2:1 skew experiments: the same step shape driven at two
    different magnitudes.
    """

    def __init__(self, inner: RateSchedule, factor: float) -> None:
        if not factor >= 0:
            raise ValueError("factor must be non-negative")
        self.inner = inner
        self.factor = factor

    def rate_at(self, t: float) -> float:
        return self.inner.rate_at(t) * self.factor

    def next_change_after(self, t: float) -> float | None:
        return next_change_after(self.inner, t)


class ModulatedRate:
    """A base schedule modulated by a mean-preserving sinusoid.

    ``rate(t) = base.rate_at(t) * (1 + amplitude * sin(2π t / period))`` —
    the Figure 11 workload: step levels whose instantaneous rate
    oscillates while the per-step average matches the unmodulated steps.
    """

    def __init__(self, base: RateSchedule, amplitude: float = 0.5, period: float = 10.0) -> None:
        if not 0 <= amplitude <= 1:
            raise ValueError("amplitude must be in [0, 1]")
        if not period > 0:
            raise ValueError("period must be positive")
        self.base = base
        self.amplitude = amplitude
        self.period = period

    def rate_at(self, t: float) -> float:
        factor = 1.0 + self.amplitude * math.sin(2 * math.pi * t / self.period)
        return max(0.0, self.base.rate_at(t) * factor)

    def next_change_after(self, t: float) -> float | None:
        # The sinusoid varies continuously; only the base's discrete
        # transitions are worth waking for (a zero rate stays zero until
        # the base steps to a nonzero level — amplitude <= 1 cannot zero
        # a nonzero base except at isolated instants).
        return next_change_after(self.base, t)
