"""Scalar metrics: counters and gauges.

Both are a name and one number, ``value``, which is a documented field
with a fixed slot: readers read it, and the protocol's per-message sites
write it directly (``counter.value += 1``, ``counter.value += size``,
``gauge.value = len(queue)``). A unit increment cannot violate
monotonicity, and a message size is checked once where it enters — the
proposers reject a negative or NaN size before anything is counted — so
a call and its check per message would buy nothing. Callers off the
message path use :meth:`Counter.inc`, which rejects what would make the
counter decrease or poison it (negative, NaN) and leaves it unchanged.
"""

from __future__ import annotations

__all__ = ["Counter", "Gauge"]


class Counter:
    """A monotonically increasing sum (messages delivered, bytes sent...).

    ``value`` starts at 0.0 and only grows: by ``value += amount`` on the
    message path, where the amount was validated as it entered, by
    :meth:`inc` anywhere else.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str = "counter") -> None:
        self.name = name
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if not amount >= 0:  # written so that NaN is rejected too
            raise ValueError("counters only increase; use a Gauge instead")
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value that can move in either direction.

    ``value`` may be assigned directly; :meth:`set` and :meth:`add` are
    the same stores, for callers that want a callable.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str = "gauge", value: float = 0.0) -> None:
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def add(self, delta: float) -> None:
        """Adjust the gauge by ``delta`` (may be negative)."""
        self.value += delta

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"
