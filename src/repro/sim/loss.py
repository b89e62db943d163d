"""Message-loss models for the simulated network.

The paper's model (Section II-A) allows messages to be lost but not
corrupted. Losses are applied independently per receiver — matching UDP
ip-multicast, where each subscriber's NIC may drop a datagram the others
receive — which is what exercises Ring Paxos's learner recovery path.
"""

from __future__ import annotations

import random
from typing import Protocol

__all__ = ["LossModel", "NoLoss", "UniformLoss", "TunableLoss"]


class LossModel(Protocol):
    """Decides, per (src, dst, size) transmission leg, whether to drop."""

    def should_drop(self, rng: random.Random, src: str, dst: str, size: int) -> bool:
        """Return True to drop this copy of the message."""
        ...  # pragma: no cover - protocol definition


class NoLoss:
    """The default: a reliable network (losses disabled)."""

    def should_drop(self, rng: random.Random, src: str, dst: str, size: int) -> bool:
        return False


class UniformLoss:
    """Drop each receiver-leg independently with probability ``p``.

    The degenerate probabilities short-circuit without consuming a random
    draw (matching :class:`TunableLoss`): ``UniformLoss(0.0)`` is
    stream-equivalent to :class:`NoLoss`, so swapping one for the other
    cannot perturb an otherwise identical seeded run.
    """

    def __init__(self, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError("loss probability must be within [0, 1]")
        self.p = p

    def should_drop(self, rng: random.Random, src: str, dst: str, size: int) -> bool:
        p = self.p
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return rng.random() < p


class TunableLoss:
    """Uniform loss whose probability can change mid-run.

    The fuzz harness (``repro.check``) uses this for *loss phases*: a
    generated schedule raises the drop probability for a window and resets
    it to zero afterwards. At ``p == 0`` no random draw is consumed, so a
    schedule without loss phases leaves the loss stream untouched.
    """

    def __init__(self, p: float = 0.0) -> None:
        self.set(p)
        self.dropped = 0

    def set(self, p: float) -> None:
        """Change the drop probability (takes effect immediately)."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("loss probability must be within [0, 1]")
        self.p = p

    def should_drop(self, rng: random.Random, src: str, dst: str, size: int) -> bool:
        if self.p <= 0.0:
            return False
        if rng.random() < self.p:
            self.dropped += 1
            return True
        return False

