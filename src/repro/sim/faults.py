"""Network partitions, modelled as a loss model::

    partition = NetworkPartition({"a", "b"})   # isolate {a, b} from the rest
    net.loss = partition
    sim.at(5.0, partition.activate)
    sim.at(8.0, partition.heal)

While active, any message crossing the cut is dropped. Protocols recover
through their normal retransmission/repair paths — nothing is notified
explicitly, exactly as on a real network. Fuzz schedules drive one
partition through many cuts (:class:`repro.check.schedule.ScheduleRunner`).
"""

from __future__ import annotations

import random
from typing import Iterable

from .loss import LossModel, NoLoss

__all__ = ["NetworkPartition"]


class NetworkPartition:
    """A two-sided cut: messages between ``island`` and the rest drop.

    Inactive by default; toggle with :meth:`activate` / :meth:`heal`.
    Composes with another loss model (applied when the partition lets the
    message through).
    """

    def __init__(self, island: Iterable[str], underlying: LossModel | None = None) -> None:
        self.island = set(island)
        self.underlying = underlying if underlying is not None else NoLoss()
        self.active = False
        self.dropped = 0

    def activate(self) -> None:
        """Start dropping messages that cross the cut."""
        self.active = True

    def heal(self) -> None:
        """Stop dropping (the network is whole again)."""
        self.active = False

    def should_drop(self, rng: random.Random, src: str, dst: str, size: int) -> bool:
        if self.active and ((src in self.island) != (dst in self.island)):
            self.dropped += 1
            return True
        return self.underlying.should_drop(rng, src, dst, size)

