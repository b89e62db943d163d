"""Values proposed to consensus.

A :class:`Value` wraps an application payload together with its wire size
(the simulator charges network and CPU by bytes). ``NOOP`` is the reserved
no-op value that a recovering coordinator proposes to fill gaps, and that
Multi-Ring Paxos's skip mechanism decides in empty instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Value", "NOOP"]


@dataclass(frozen=True, slots=True)
class Value:
    """An opaque consensus value: a payload plus its size in bytes."""

    payload: Any
    size: int = 64

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("value size must be non-negative")


NOOP = Value(payload=None, size=0)
