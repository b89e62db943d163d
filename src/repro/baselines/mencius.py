"""Mencius: multi-leader state-machine replication (baseline).

Mencius (Mao, Junqueira, Marzullo — OSDI 2008) is discussed in the
paper's related work (Section V): it partitions the sequence of consensus
instances round-robin among the servers, so every server is the
coordinator of its own instances, and — like Multi-Ring Paxos — idle
servers propose *skip* instances so the others' instances can be
delivered in order without waiting. Unlike Multi-Ring Paxos it has no
groups: it is an atomic broadcast protocol, and every server orders and
carries all traffic.

Implemented here (the crash-free common case; leader revocation is out of
scope, as for the other baselines):

* instance ``i`` is owned by server ``i mod n``; the owner proposes in it
  with an implicit Phase 1 (it owns round 0 of its instances);
* a ``Suggest`` carries the value by ip-multicast; followers acknowledge
  to the owner, which multicasts the decision once a majority (counting
  itself) has accepted;
* on observing a ``Suggest`` for instance ``i``, a server immediately
  skips its own unused instances below ``i`` (announced as a range, one
  small multicast covering any number of skips);
* an idle-timer also tops up skips, so delivery keeps flowing when only
  a subset of servers has traffic.

Every server delivers every value, in instance order, skipping no-ops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..calibration import (
    CONTROL_MESSAGE_SIZE,
    CPU_BYTE_COST_COORDINATOR,
    CPU_FIXED_COST_COORDINATOR,
    CPU_FIXED_COST_SMALL_MESSAGE,
)
from ..errors import ConfigurationError
from ..metrics import BucketSeries, Counter, LatencyHistogram
from ..sim.network import Network
from ..sim.node import Node
from ..sim.process import PeriodicTimer, Process
from ..sim.simulator import Simulator

__all__ = ["MenciusValue", "MenciusServer", "build_mencius"]

MENCIUS_GROUP = "mencius.mcast"
MENCIUS_PORT = "mencius"
# Seconds between a server's checks for owned instances to skip while idle.
IDLE_SKIP_INTERVAL = 2e-3


@dataclass(frozen=True, slots=True)
class MenciusValue:
    """An application value ordered by Mencius."""

    payload: object
    size: int
    sender: str
    seq: int
    created_at: float


@dataclass(frozen=True, slots=True)
class _Suggest:
    instance: int
    value: MenciusValue

    @property
    def wire_size(self) -> int:
        return CONTROL_MESSAGE_SIZE + self.value.size


@dataclass(frozen=True, slots=True)
class _Ack:
    instance: int

    @property
    def wire_size(self) -> int:
        return CONTROL_MESSAGE_SIZE


@dataclass(frozen=True, slots=True)
class _Decide:
    instance: int

    @property
    def wire_size(self) -> int:
        return CONTROL_MESSAGE_SIZE


@dataclass(frozen=True, slots=True)
class _SkipRange:
    """Owner announces: my instances in [start, end) stepping n are no-ops."""

    owner: int
    start: int
    end: int

    @property
    def wire_size(self) -> int:
        return CONTROL_MESSAGE_SIZE


class MenciusServer(Process):
    """One Mencius server: proposer, acceptor and learner in one."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node: Node,
        servers: list[str],
        on_deliver: Callable[[MenciusValue], None] | None = None,
    ) -> None:
        super().__init__(sim, f"mencius@{node.name}")
        if node.name not in servers:
            raise ConfigurationError(f"{node.name!r} is not in the server list")
        self.network = network
        self.node = node
        self.servers = list(servers)
        self.on_deliver = on_deliver
        self.my_index = servers.index(node.name)
        self.n = len(servers)
        self.seq = 0
        self.sent = Counter("sent")
        self.delivered = Counter("delivered")
        self.delivered_bytes = Counter("delivered_bytes")
        self.skips_announced = Counter("skips_announced")
        self.latency = LatencyHistogram("mencius_latency")
        self.delivery_series = BucketSeries(1.0, "mencius_delivered_bytes")
        self._next_own = self.my_index  # my next unused owned instance
        self._acks: dict[int, int] = {}
        self._proposed: dict[int, MenciusValue] = {}
        self._decided: dict[int, MenciusValue | None] = {}
        self._next_deliver = 0
        self._highest_seen = -1
        network.join(MENCIUS_GROUP, node.name)
        node.register(MENCIUS_PORT, self._on_message)
        self._idle_timer = PeriodicTimer(sim, IDLE_SKIP_INTERVAL, self._idle_skip)
        self._idle_timer.start()

    @property
    def quorum(self) -> int:
        """Majority of the server set (the proposer counts itself)."""
        return self.n // 2 + 1

    # ------------------------------------------------------------------
    # Broadcast
    # ------------------------------------------------------------------
    def broadcast(self, payload: object, size: int) -> MenciusValue:
        """Order ``payload`` in this server's next owned instance."""
        value = MenciusValue(
            payload=payload,
            size=size,
            sender=self.node.name,
            seq=self.seq,
            created_at=self.sim.now,
        )
        self.seq += 1
        self.sent.inc()
        instance = self._next_own
        self._next_own += self.n
        self._proposed[instance] = value
        self._acks[instance] = 1  # my own accept
        msg = _Suggest(instance, value)
        cost = CPU_FIXED_COST_COORDINATOR + CPU_BYTE_COST_COORDINATOR * size
        self.node.cpu.execute(cost, self._multicast, msg)
        return value

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _on_message(self, src: str, msg) -> None:
        if self.crashed:
            return
        if isinstance(msg, _Suggest):
            cost = CPU_FIXED_COST_SMALL_MESSAGE + CPU_BYTE_COST_COORDINATOR * msg.value.size / 4
            self.node.cpu.execute(cost, self._on_suggest, src, msg)
        elif isinstance(msg, _Ack):
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._on_ack, msg)
        elif isinstance(msg, _Decide):
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._on_decide, msg)
        elif isinstance(msg, _SkipRange):
            self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._on_skiprange, msg)

    def _on_suggest(self, src: str, msg: _Suggest) -> None:
        if self.crashed:
            return
        self._highest_seen = max(self._highest_seen, msg.instance)
        self._proposed[msg.instance] = msg.value
        ack = _Ack(msg.instance)
        self.network.send(self.node.name, src, MENCIUS_PORT, ack, ack.wire_size)
        # Mencius's key rule: skip my unused instances below the suggested
        # one, so instance msg.instance can be delivered without waiting.
        self._skip_below(msg.instance)
        self._try_deliver()

    def _on_ack(self, msg: _Ack) -> None:
        if self.crashed or msg.instance not in self._acks:
            return
        self._acks[msg.instance] += 1
        if self._acks[msg.instance] == self.quorum:
            del self._acks[msg.instance]
            decide = _Decide(msg.instance)
            self._multicast(decide)
            self._record_decision(msg.instance, self._proposed.get(msg.instance))

    def _on_decide(self, msg: _Decide) -> None:
        if self.crashed:
            return
        self._record_decision(msg.instance, self._proposed.get(msg.instance))

    def _on_skiprange(self, msg: _SkipRange) -> None:
        if self.crashed:
            return
        instance = msg.start
        while instance < msg.end:
            if instance % self.n == msg.owner:
                self._record_decision(instance, None)
            instance += 1

    # ------------------------------------------------------------------
    # Skips
    # ------------------------------------------------------------------
    def _skip_below(self, horizon: int) -> None:
        """Announce no-ops for my unused instances below ``horizon``."""
        if self._next_own >= horizon:
            return
        start = self._next_own
        # Advance my cursor past the horizon.
        while self._next_own < horizon:
            self._next_own += self.n
        announce = _SkipRange(self.my_index, start, horizon)
        self.skips_announced.inc((horizon - start + self.n - 1) // self.n)
        self._multicast(announce)
        # A skip announcement is authoritative for my own instances.
        self._on_skiprange(announce)

    def _idle_skip(self) -> None:
        """Top up skips when others' instances are ahead of my cursor."""
        if self.crashed:
            return
        if self._highest_seen >= self._next_own:
            self._skip_below(self._highest_seen + 1)

    # ------------------------------------------------------------------
    # Ordered delivery
    # ------------------------------------------------------------------
    def _record_decision(self, instance: int, value: MenciusValue | None) -> None:
        self._highest_seen = max(self._highest_seen, instance)
        if instance not in self._decided:
            self._decided[instance] = value
        self._try_deliver()

    def _try_deliver(self) -> None:
        while self._next_deliver in self._decided:
            value = self._decided.pop(self._next_deliver)
            self._proposed.pop(self._next_deliver, None)
            self._next_deliver += 1
            if value is not None:
                self.delivered.inc()
                self.delivered_bytes.inc(value.size)
                self.delivery_series.record(self.sim.now, value.size)
                self.latency.record(max(0.0, self.sim.now - value.created_at))
                if self.on_deliver is not None:
                    self.on_deliver(value)

    def _multicast(self, msg) -> None:
        if self.crashed:
            return
        self.network.multicast(self.node.name, MENCIUS_GROUP, MENCIUS_PORT, msg, msg.wire_size)

    def on_crash(self) -> None:
        self._idle_timer.stop()

    def on_restart(self) -> None:
        self._idle_timer.start()


def build_mencius(
    sim: Simulator,
    network: Network,
    n_servers: int,
    on_deliver: Callable[[str, MenciusValue], None] | None = None,
) -> list[MenciusServer]:
    """Create ``n_servers`` machines running Mencius."""
    if n_servers < 2:
        raise ConfigurationError("Mencius needs at least two servers")
    names = [f"mn{i}" for i in range(n_servers)]
    servers = []
    for name in names:
        node = Node(sim, name)
        network.add_node(node)
        deliver = None
        if on_deliver is not None:
            deliver = (lambda nm: (lambda value: on_deliver(nm, value)))(name)
        servers.append(MenciusServer(sim, network, node, names, on_deliver=deliver))
    return servers
