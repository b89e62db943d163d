"""A Spread-like group communication system (baseline).

Spread (Amir et al., CNDS-2004-1) is a daemon-based toolkit: participants
connect to a local daemon, daemons run a Totem-style token protocol among
themselves to agree on a global sequence, and each daemon delivers to the
clients that joined the relevant process groups. The abstraction of groups
in Spread "was not created for performance, but to ease application
design" (paper, Section V): all daemons order and carry *all* traffic, so
adding daemons/groups does not add throughput — which is exactly what the
paper's Figure 5 shows against Multi-Ring Paxos.

The implementation models:

* a rotating token among daemons; only the token holder multicasts its
  pending client messages, stamped from the token's global sequence;
* daemon-to-daemon dissemination by ip-multicast;
* clients attached to a daemon over unicast links: publish to groups,
  subscribe to groups, and receive deliveries from their daemon (the
  daemon's egress link and CPU are therefore shared by all its clients);
* 16 KB application messages, the size the paper used for Spread.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from ..calibration import (
    CONTROL_MESSAGE_SIZE,
    CPU_FIXED_COST_SMALL_MESSAGE,
)
from ..errors import ConfigurationError
from ..metrics import BucketSeries, Counter, LatencyHistogram
from ..sim.network import Network
from ..sim.node import Node
from ..sim.process import Process
from ..sim.simulator import Simulator

__all__ = ["SpreadMessage", "SpreadDaemon", "SpreadClient", "build_spread"]

SPREAD_MESSAGE_SIZE = 16 * 1024

# Spread daemons run entirely in user space with heavier per-message
# processing than the lean Ring Paxos hot path; this per-byte cost lands
# the system at the few-hundred-Mbps plateau of the paper's Figure 5.
SPREAD_CPU_BYTE_COST = 1.6e-8
SPREAD_CPU_FIXED_COST = 10e-6
# Port every daemon listens on, and the most messages a token holder
# orders per token visit.
DAEMON_PORT = "spread.daemon"
MAX_BURST = 16


@dataclass(frozen=True, slots=True)
class SpreadMessage:
    """A client message travelling through the daemons."""

    group: int
    payload: object
    size: int
    sender: str
    created_at: float
    seq: int = 0
    global_seq: int = -1

    @property
    def wire_size(self) -> int:
        return CONTROL_MESSAGE_SIZE + self.size


@dataclass(frozen=True, slots=True)
class _Token:
    """The rotating Totem-style token carrying the global sequence."""

    seq: int
    rotation: int

    @property
    def wire_size(self) -> int:
        return CONTROL_MESSAGE_SIZE


class SpreadDaemon(Process):
    """One daemon of the Spread-like system."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node: Node,
        daemons: list[str],
    ) -> None:
        super().__init__(sim, f"spreadd@{node.name}")
        if node.name not in daemons:
            raise ConfigurationError(f"{node.name!r} is not in the daemon ring")
        self.network = network
        self.node = node
        self.daemons = list(daemons)
        my_index = daemons.index(node.name)
        self.successor = daemons[(my_index + 1) % len(daemons)]
        self.is_token_origin = my_index == 0
        self.ordered = Counter("ordered")
        self.pending: deque[SpreadMessage] = deque()
        self._clients_by_group: dict[int, list[str]] = {}
        self._next_deliver_seq = 0
        self._out_of_order: dict[int, SpreadMessage] = {}
        node.register(DAEMON_PORT, self._on_message)
        network.join("spread.mcast", node.name)
        if self.is_token_origin:
            # The ring's first daemon injects the token at startup.
            self.sim.schedule(0.0, self._inject_token)

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def attach_client(self, client_name: str, groups: list[int]) -> None:
        """Register a connected client's group subscriptions."""
        for group in groups:
            self._clients_by_group.setdefault(group, []).append(client_name)

    # ------------------------------------------------------------------
    # Token protocol
    # ------------------------------------------------------------------
    def _inject_token(self) -> None:
        self._on_token(_Token(seq=0, rotation=0))

    def _on_message(self, src: str, msg) -> None:
        if self.crashed:
            return
        if isinstance(msg, _Token):
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._on_token, msg)
        elif isinstance(msg, SpreadMessage):
            if msg.global_seq < 0:
                # From a local client: queue for our next token visit.
                self.node.cpu.execute(
                    CPU_FIXED_COST_SMALL_MESSAGE, self._queue_client_message, msg
                )
            else:
                # From another daemon: ordered traffic.
                cost = SPREAD_CPU_FIXED_COST + SPREAD_CPU_BYTE_COST * msg.size
                self.node.cpu.execute(cost, self._on_ordered, msg)

    def _queue_client_message(self, msg: SpreadMessage) -> None:
        self.pending.append(msg)

    def _on_token(self, token: _Token) -> None:
        if self.crashed:
            return
        seq = token.seq
        burst = 0
        cpu_cost = CPU_FIXED_COST_SMALL_MESSAGE
        to_send: list[SpreadMessage] = []
        while self.pending and burst < MAX_BURST:
            msg = self.pending.popleft()
            stamped = SpreadMessage(
                group=msg.group,
                payload=msg.payload,
                size=msg.size,
                sender=msg.sender,
                created_at=msg.created_at,
                seq=msg.seq,
                global_seq=seq,
            )
            seq += 1
            burst += 1
            to_send.append(stamped)
            cpu_cost += SPREAD_CPU_FIXED_COST + SPREAD_CPU_BYTE_COST * msg.size
        next_token = _Token(seq=seq, rotation=token.rotation + 1)
        self.node.cpu.execute(cpu_cost, self._flush_token_burst, to_send, next_token)

    def _flush_token_burst(self, to_send: list[SpreadMessage], token: _Token) -> None:
        if self.crashed:
            return
        for msg in to_send:
            self.ordered.inc()
            self.network.multicast(self.node.name, "spread.mcast", DAEMON_PORT, msg, msg.wire_size)
            # The sender's daemon also processes its own messages.
            self._on_ordered(msg)
        self.network.send(self.node.name, self.successor, DAEMON_PORT, token, token.wire_size)

    # ------------------------------------------------------------------
    # Ordered delivery to clients
    # ------------------------------------------------------------------
    def _on_ordered(self, msg: SpreadMessage) -> None:
        if self.crashed or msg.global_seq < self._next_deliver_seq:
            return
        self._out_of_order[msg.global_seq] = msg
        while self._next_deliver_seq in self._out_of_order:
            ready = self._out_of_order.pop(self._next_deliver_seq)
            self._next_deliver_seq += 1
            for client in self._clients_by_group.get(ready.group, []):
                self.network.send(self.node.name, client, "spread.client", ready, ready.wire_size)


class SpreadClient(Process):
    """A participant connected to one daemon."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node: Node,
        daemon: SpreadDaemon,
        groups: list[int],
    ) -> None:
        super().__init__(sim, f"spreadc@{node.name}")
        self.network = network
        self.node = node
        self.daemon = daemon
        self.groups = list(groups)
        # Delivery callback ``(message)``; the runner assigns it per client.
        self.on_deliver: Callable[[SpreadMessage], None] | None = None
        self.sent = Counter("sent")
        self.delivered = Counter("delivered")
        self.delivered_bytes = Counter("delivered_bytes")
        self.latency = LatencyHistogram("spread_latency")
        self.delivery_series = BucketSeries(1.0, "spread_delivered_bytes")
        daemon.attach_client(node.name, groups)
        node.register("spread.client", self._on_delivery)

    def multicast(
        self, group: int, payload: object, size: int = SPREAD_MESSAGE_SIZE
    ) -> SpreadMessage:
        """Publish ``payload`` to ``group``; returns the sequenced envelope."""
        msg = SpreadMessage(
            group=group,
            payload=payload,
            size=size,
            sender=self.node.name,
            created_at=self.sim.now,
            seq=int(self.sent.value),
        )
        self.sent.inc()
        self.network.send(
            self.node.name, self.daemon.node.name, DAEMON_PORT, msg, msg.wire_size
        )
        return msg

    def _on_delivery(self, src: str, msg) -> None:
        if self.crashed or not isinstance(msg, SpreadMessage):
            return
        self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._deliver, msg)

    def _deliver(self, msg: SpreadMessage) -> None:
        if self.crashed:
            return
        self.delivered.inc()
        self.delivered_bytes.inc(msg.size)
        self.delivery_series.record(self.sim.now, msg.size)
        self.latency.record(max(0.0, self.sim.now - msg.created_at))
        if self.on_deliver is not None:
            self.on_deliver(msg)


def build_spread(
    sim: Simulator,
    network: Network,
    n_daemons: int,
    clients_per_daemon: int = 1,
    client_groups: Callable[[int, int], list[int]] | None = None,
) -> tuple[list[SpreadDaemon], list[SpreadClient]]:
    """Deploy daemons in a token ring plus clients attached round-robin.

    ``client_groups(daemon_idx, client_idx)`` decides subscriptions; the
    default subscribes each client to the group numbered like its daemon
    (the paper's one-group-per-daemon Figure 5 configuration).
    """
    if n_daemons < 1:
        raise ConfigurationError("need at least one daemon")
    names = [f"spd{i}" for i in range(n_daemons)]
    daemons = []
    for name in names:
        node = Node(sim, name)
        network.add_node(node)
        daemons.append(SpreadDaemon(sim, network, node, daemons=names))
    clients = []
    for d_idx, daemon in enumerate(daemons):
        for c_idx in range(clients_per_daemon):
            node = Node(sim, f"spc{d_idx}-{c_idx}")
            network.add_node(node)
            groups = client_groups(d_idx, c_idx) if client_groups else [d_idx]
            clients.append(SpreadClient(sim, network, node, daemon, groups))
    return daemons, clients
