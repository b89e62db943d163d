"""LCR: ring-based throughput-optimal atomic broadcast (baseline).

LCR (Guerraoui, Levy, Pochon, Quéma — TOCS 2010) arranges all nodes in a
logical ring and pipelines every broadcast around it, using logical clocks
to establish a total order. Its defining performance property is
throughput-optimality on a cluster: every node's egress link carries each
message exactly once, so the *aggregate* throughput approaches the link
bandwidth — but, like all atomic broadcast protocols, it does not grow as
nodes are added (the paper's Figure 5 shows LCR flat from 2 to 16 nodes).

This implementation follows the published design's structure:

* broadcasts travel the full ring hop by hop over FIFO links (each node
  forwards messages that did not originate with it, until the message
  reaches the origin's predecessor);
* every message carries a Lamport timestamp; delivery order is
  ``(timestamp, origin)``;
* a message is delivered once it is *stable*: the node has seen traffic
  (data or the periodic clock-bearing heartbeat) with a higher timestamp
  from every ring member, which — with FIFO links and full-ring traversal
  — guarantees no earlier-ordered message can still arrive.

LCR uses 32 KB application messages in the paper's evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..calibration import (
    CONTROL_MESSAGE_SIZE,
    CPU_BYTE_COST_ACCEPTOR,
    CPU_FIXED_COST_ACCEPTOR,
    CPU_FIXED_COST_SMALL_MESSAGE,
)
from ..errors import ConfigurationError
from ..metrics import BucketSeries, Counter, LatencyHistogram
from ..sim.network import Network
from ..sim.node import Node
from ..sim.process import PeriodicTimer, Process
from ..sim.simulator import Simulator

__all__ = ["LcrMessage", "LcrNode", "build_lcr_ring"]

LCR_MESSAGE_SIZE = 32 * 1024
# Seconds between a member's clock heartbeats (they unblock delivery on an
# idle ring).
HEARTBEAT_INTERVAL = 2e-3


@dataclass(frozen=True, slots=True)
class LcrMessage:
    """A broadcast travelling the ring."""

    origin: str
    seq: int
    ts: int
    payload: object
    size: int
    created_at: float

    @property
    def wire_size(self) -> int:
        return CONTROL_MESSAGE_SIZE + self.size


@dataclass(frozen=True, slots=True)
class _LcrHeartbeat:
    """Clock-bearing liveness beacon (forwarded one hop at a time)."""

    origin: str
    ts: int

    @property
    def wire_size(self) -> int:
        return CONTROL_MESSAGE_SIZE


class LcrNode(Process):
    """One LCR ring member: broadcaster, forwarder, and deliverer."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node: Node,
        ring: list[str],
        on_deliver: Callable[[LcrMessage], None] | None = None,
        port: str = "lcr",
    ) -> None:
        super().__init__(sim, f"lcr@{node.name}")
        if node.name not in ring:
            raise ConfigurationError(f"{node.name!r} not part of the LCR ring")
        if len(set(ring)) != len(ring):
            raise ConfigurationError("LCR ring members must be distinct")
        self.network = network
        self.node = node
        self.ring = list(ring)
        self.on_deliver = on_deliver
        self.port = port
        my_index = ring.index(node.name)
        self.successor = ring[(my_index + 1) % len(ring)]
        self.clock = 0
        self.seq = 0
        self.sent = Counter("sent")
        self.delivered = Counter("delivered")
        self.delivered_bytes = Counter("delivered_bytes")
        self.latency = LatencyHistogram("lcr_latency")
        self.delivery_series = BucketSeries(1.0, "lcr_delivered_bytes")
        self._highest_seen: dict[str, int] = {name: -1 for name in ring}
        self._pending: dict[tuple[int, str, int], LcrMessage] = {}
        node.register(port, self._on_message)
        self._hb_timer = PeriodicTimer(sim, HEARTBEAT_INTERVAL, self._heartbeat)
        self._hb_timer.start()

    # ------------------------------------------------------------------
    # Broadcast
    # ------------------------------------------------------------------
    def broadcast(self, payload: object, size: int = LCR_MESSAGE_SIZE) -> LcrMessage:
        """Atomically broadcast ``payload`` to the whole ring."""
        self.clock += 1
        msg = LcrMessage(
            origin=self.node.name,
            seq=self.seq,
            ts=self.clock,
            payload=payload,
            size=size,
            created_at=self.sim.now,
        )
        self.seq += 1
        self.sent.inc()
        self._note(msg)
        self._forward(msg)
        return msg

    # ------------------------------------------------------------------
    # Ring traffic
    # ------------------------------------------------------------------
    def _on_message(self, src: str, msg) -> None:
        if self.crashed:
            return
        if isinstance(msg, LcrMessage):
            cost = CPU_FIXED_COST_ACCEPTOR + CPU_BYTE_COST_ACCEPTOR * msg.size
            self.node.cpu.execute(cost, self._on_data, (msg,))
        elif isinstance(msg, _LcrHeartbeat):
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._on_heartbeat, (msg,))

    def _on_data(self, msg: LcrMessage) -> None:
        if self.crashed or msg.origin == self.node.name:
            return  # completed the full ring (the implicit acknowledgment)
        self.clock = max(self.clock, msg.ts) + 1
        self._note(msg)
        # Forward all the way around, back to the origin: every message
        # crosses every node's egress link exactly once, which is what
        # bounds LCR's aggregate throughput at ~the link bandwidth
        # regardless of ring size (its throughput-optimality property).
        self._forward(msg)
        self._try_deliver()

    def _on_heartbeat(self, msg: _LcrHeartbeat) -> None:
        if self.crashed or msg.origin == self.node.name:
            return
        self.clock = max(self.clock, msg.ts)
        prev = self._highest_seen[msg.origin]
        self._highest_seen[msg.origin] = max(prev, msg.ts)
        if self.successor != msg.origin:
            self.network.send(self.node.name, self.successor, self.port, msg, msg.wire_size)
        self._try_deliver()

    def _heartbeat(self) -> None:
        if self.crashed:
            return
        self.clock += 1
        self._highest_seen[self.node.name] = self.clock
        hb = _LcrHeartbeat(origin=self.node.name, ts=self.clock)
        self.network.send(self.node.name, self.successor, self.port, hb, hb.wire_size)
        self._try_deliver()

    # ------------------------------------------------------------------
    # Ordered delivery
    # ------------------------------------------------------------------
    def _note(self, msg: LcrMessage) -> None:
        self._highest_seen[msg.origin] = max(self._highest_seen[msg.origin], msg.ts)
        self._pending[(msg.ts, msg.origin, msg.seq)] = msg
        self._try_deliver()

    def _try_deliver(self) -> None:
        while self._pending:
            key = min(self._pending)
            ts = key[0]
            # Stable once every member has been seen past ts: no message
            # with a smaller (ts, origin) can still be in flight.
            if any(seen < ts for seen in self._highest_seen.values()):
                return
            msg = self._pending.pop(key)
            self.delivered.inc()
            self.delivered_bytes.inc(msg.size)
            self.delivery_series.record(self.sim.now, msg.size)
            self.latency.record(max(0.0, self.sim.now - msg.created_at))
            if self.on_deliver is not None:
                self.on_deliver(msg)

    def _forward(self, msg: LcrMessage) -> None:
        self.network.send(self.node.name, self.successor, self.port, msg, msg.wire_size)

    def on_crash(self) -> None:
        self._hb_timer.stop()

    def on_restart(self) -> None:
        self._hb_timer.start()


def build_lcr_ring(
    sim: Simulator,
    network: Network,
    n_nodes: int,
    on_deliver: Callable[[str, LcrMessage], None] | None = None,
) -> list[LcrNode]:
    """Create ``n_nodes`` machines and wire them into an LCR ring."""
    if n_nodes < 2:
        raise ConfigurationError("LCR needs at least two nodes")
    names = [f"lcr{i}" for i in range(n_nodes)]
    members = []
    for name in names:
        node = Node(sim, name)
        network.add_node(node)
        deliver = None
        if on_deliver is not None:
            deliver = (lambda nm: (lambda msg: on_deliver(nm, msg)))(name)
        members.append(
            LcrNode(
                sim,
                network,
                node,
                ring=names,
                on_deliver=deliver,
            )
        )
    return members
