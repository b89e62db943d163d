"""Backing a group with a different atomic broadcast protocol.

The paper's conclusion conjectures that "although Multi-Ring Paxos uses
Ring Paxos as its ordering protocol within a group, one could use any
atomic broadcast protocol within a group" (Section VII). This module
demonstrates the conjecture: :class:`LcrBackedGroup` orders one group's
messages with LCR — a protocol with no groups, no coordinator and no
ip-multicast — and exposes the stream interface the deterministic merge
consumes: gapless logical instances carrying data batches or skip ranges.

Two things make any atomic broadcast protocol pluggable:

* a bijection from its total delivery order onto consecutive logical
  instance numbers (trivial: count deliveries), and
* the skip mechanism, implemented *inside* the protocol: a designated
  member monitors the group's delivery rate every Δ and broadcasts a skip
  marker topping it up to λ, exactly like a Ring Paxos coordinator does
  with batched skip instances.

See ``examples/mixed_protocol_groups.py`` for a full deployment that
merges a Ring Paxos group with an LCR group at one learner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..baselines.lcr import LcrMessage, LcrNode
from ..metrics import Counter
from ..ringpaxos.messages import ClientValue, DataBatch, SkipRange
from ..sim.network import Network
from ..sim.node import Node
from ..sim.process import PeriodicTimer, Process
from ..sim.simulator import Simulator
from .skip import skips_due

__all__ = ["SkipMarker", "LcrBackedGroup"]

# Δ: seconds between the group's rate-monitor checks.
SKIP_INTERVAL = 1e-3


@dataclass(frozen=True, slots=True)
class SkipMarker:
    """Payload of an LCR broadcast that stands for ``count`` skip instances."""

    count: int


class LcrBackedGroup(Process):
    """One multicast group whose total order comes from an LCR ring.

    Parameters
    ----------
    group_id:
        The group's identifier (its position in merge ring order).
    member_nodes:
        Nodes forming the LCR ring. LCR has no separate learner role, so
        any node that wants the group's stream must be a ring member —
        pass the learner's node among them and call :meth:`stream_at`.
    lambda_rate:
        The skip mechanism's λ; the first member acts as the group's rate
        monitor, every ``SKIP_INTERVAL`` (Δ).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        group_id: int,
        member_nodes: list[Node],
        lambda_rate: float = 0.0,
    ) -> None:
        super().__init__(sim, f"lcrgroup{group_id}")
        if len(member_nodes) < 2:
            raise ValueError("an LCR ring needs at least two members")
        self.network = network
        self.group_id = group_id
        self.lambda_rate = lambda_rate
        self.skips_proposed = Counter("skips_proposed")
        ring_names = [node.name for node in member_nodes]
        self._streams: dict[str, _MemberStream] = {}
        self.members: dict[str, LcrNode] = {}
        for node in member_nodes:
            member = LcrNode(
                sim,
                network,
                node,
                ring=ring_names,
                on_deliver=self._make_member_feed(node.name),
                port=f"lcrg{group_id}",
            )
            self.members[node.name] = member
            self._streams[node.name] = _MemberStream()
        self._monitor_name = ring_names[0]
        self._logical_at_monitor = 0  # logical instances delivered there
        self._outstanding_skips = 0  # proposed skips not yet delivered
        self._prev_planned = 0
        self._prev_time = sim.now
        self._skip_carry = 0.0
        self._skip_timer = PeriodicTimer(sim, SKIP_INTERVAL, self._skip_tick)
        if lambda_rate > 0:
            self._skip_timer.start()

    # ------------------------------------------------------------------
    # Group API
    # ------------------------------------------------------------------
    def multicast(self, member: str, payload: object, size: int) -> ClientValue:
        """Multicast ``payload`` (``size`` bytes) to the group through
        ``member``'s node."""
        # (payload, size, sender, seq, created_at, group)
        value = ClientValue(payload, size, member, 0, self.sim.now, self.group_id)
        self.members[member].broadcast(value, size)
        return value

    def stream_at(self, member: str, feed: Callable[[int, DataBatch | SkipRange], None]) -> None:
        """Subscribe ``feed(instance, item)`` to the group's ordered stream
        as observed at ``member`` (any member sees the same order)."""
        self._streams[member].feed = feed

    # ------------------------------------------------------------------
    # LCR deliveries -> logical instances
    # ------------------------------------------------------------------
    def _make_member_feed(self, member: str):
        def on_deliver(msg: LcrMessage) -> None:
            stream = self._streams[member]
            payload = msg.payload
            if isinstance(payload, SkipMarker):
                item: DataBatch | SkipRange = SkipRange(payload.count)
            elif isinstance(payload, ClientValue):
                item = DataBatch(value_id=stream.next_instance, values=(payload,))
            else:  # foreign traffic (e.g. raw LCR users): wrap it
                wrapped = ClientValue(
                    payload, msg.size, msg.origin, 0, msg.created_at, self.group_id
                )
                item = DataBatch(value_id=stream.next_instance, values=(wrapped,))
            instance = stream.next_instance
            stream.next_instance += item.instance_count
            if member == self._monitor_name:
                self._logical_at_monitor += item.instance_count
                if isinstance(payload, SkipMarker):
                    self._outstanding_skips = max(0, self._outstanding_skips - payload.count)
            if stream.feed is not None:
                stream.feed(instance, item)

        return on_deliver

    # ------------------------------------------------------------------
    # The skip mechanism, spoken natively in LCR
    # ------------------------------------------------------------------
    def _skip_tick(self) -> None:
        if self.crashed:
            return
        now = self.sim.now
        elapsed = now - self._prev_time
        if elapsed <= 0:
            return
        # "Planned" mirrors RingCoordinator.planned_instance: logical
        # instances observed plus skips proposed but still in flight, so
        # an interval's fill is never proposed twice.
        planned = self._logical_at_monitor + self._outstanding_skips
        whole, self._skip_carry = skips_due(self.lambda_rate * elapsed, self._skip_carry)
        target = self._prev_planned + whole
        missing = target - planned
        if missing > 0:
            # One broadcast covers the whole interval's worth of skips.
            self.skips_proposed.value += missing
            self._outstanding_skips += missing
            self.members[self._monitor_name].broadcast(SkipMarker(missing), 64)
        self._prev_planned = self._logical_at_monitor + self._outstanding_skips
        self._prev_time = now

    def on_crash(self) -> None:
        self._skip_timer.stop()


class _MemberStream:
    """Per-member instance counter and merge feed."""

    __slots__ = ("next_instance", "feed")

    def __init__(self) -> None:
        self.next_instance = 0
        self.feed: Callable[[int, DataBatch | SkipRange], None] | None = None
