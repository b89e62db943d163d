"""Switched-Ethernet network model with unicast and IP multicast.

Models the paper's testbed fabric: servers on a non-blocking Gigabit
switch (HP ProCurve, 0.1 ms RTT). Each node has a full-duplex NIC; the
switch itself is non-blocking, so contention happens only at NIC egress
and ingress queues — which is the regime in which Ring Paxos's single
ip-multicast per value is cheap and a learner subscribing to many rings
eventually saturates its own ingress link (Figure 6).

Transmission of a message of ``size`` bytes from ``src`` to ``dst``:

1. serialize at ``src`` egress (FIFO at the NIC bandwidth),
2. propagate through the switch (fixed one-way delay),
3. serialize at ``dst`` ingress (FIFO at the NIC bandwidth),
4. hand to the destination :class:`~repro.sim.node.Node` port.

An ip-multicast pays step 1 **once** and steps 2-4 per subscriber: the
switch replicates the frame in hardware. That asymmetry is the entire
reason Ring Paxos out-throughputs sender-replicated protocols.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable

from ..errors import NetworkError
from .loss import LossModel, NoLoss
from .node import Node
from .server import FifoServer
from .simulator import Simulator, _register_observer

__all__ = ["Nic", "Network", "observe_networks"]

# Observers notified whenever a Network is constructed — the counterpart of
# ``observe_simulators`` for the fabric layer. Empty by default.
_network_observers: list = []


def observe_networks(callback: Callable[["Network"], None]) -> Callable[[], None]:
    """Call ``callback(network)`` for every Network created from now on.

    Returns a zero-argument remover that uninstalls this registration
    (and only this one: double-registering the same callback yields two
    independent removers, each safe to call more than once).
    """
    return _register_observer(_network_observers, callback)


class Nic:
    """Full-duplex network interface: an egress and an ingress queue."""

    __slots__ = (
        "name", "bandwidth", "egress", "ingress",
        "bytes_sent", "bytes_received", "messages_sent", "messages_received",
    )

    def __init__(self, sim: Simulator, name: str, bandwidth: float) -> None:
        self.name = name
        self.bandwidth = bandwidth
        self.egress = FifoServer(sim, rate=bandwidth, name=f"{name}.tx")
        self.ingress = FifoServer(sim, rate=bandwidth, name=f"{name}.rx")
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0


class Network:
    """The cluster fabric: nodes, their NICs, and multicast groups.

    Parameters
    ----------
    propagation_delay:
        One-way switch latency in seconds (default 50 us, i.e. the paper's
        0.1 ms RTT). Assignable mid-run (latency-spike faults); every
        assignment is validated.
    bandwidth:
        Default NIC bandwidth in bytes per second (default 1 Gbps).
    loss:
        A :class:`~repro.sim.loss.LossModel`; losses are evaluated
        independently per receiver leg.
    """

    __slots__ = (
        "sim", "_propagation_delay", "default_bandwidth", "_loss", "_lossless",
        "_rng", "nodes", "nics", "_endpoints", "_groups",
        "messages_dropped", "probe",
    )

    def __init__(
        self,
        sim: Simulator,
        propagation_delay: float = 50e-6,
        bandwidth: float = 1e9 / 8,
        loss: LossModel | None = None,
    ) -> None:
        if not bandwidth > 0:  # written so that NaN is rejected too
            raise NetworkError("NIC bandwidth must be positive")
        self.sim = sim
        self.propagation_delay = propagation_delay
        self.default_bandwidth = bandwidth
        self.loss = loss if loss is not None else NoLoss()
        self._rng = sim.random.get("network.loss")
        self.nodes: dict[str, Node] = {}
        self.nics: dict[str, Nic] = {}
        # Per-destination (node, nic, node.deliver) triples: one dict lookup
        # on the delivery hot path instead of two plus a bound-method
        # allocation. Maintained by add_node.
        self._endpoints: dict[str, tuple[Node, Nic, Callable[..., None]]] = {}
        self._groups: dict[str, list[str]] = {}
        self.messages_dropped = 0
        self.probe = None  # ProbeBus | None
        if _network_observers:
            for registration in list(_network_observers):
                registration.callback(self)

    @property
    def propagation_delay(self) -> float:
        """One-way switch latency in seconds (assignable mid-run)."""
        return self._propagation_delay

    @propagation_delay.setter
    def propagation_delay(self, delay: float) -> None:
        # Validated here, once per assignment, so that send/multicast may
        # add it to a departure time and queue the arrival unchecked.
        if not delay >= 0:  # written so that NaN is rejected too
            raise NetworkError("propagation delay must be non-negative")
        self._propagation_delay = delay

    @property
    def loss(self) -> LossModel:
        """The loss model applied per receiver leg (assignable mid-run)."""
        return self._loss

    @loss.setter
    def loss(self, model: LossModel) -> None:
        self._loss = model
        # NoLoss never consumes the RNG, so the hot paths may skip the
        # should_drop call entirely without changing any random draw.
        self._lossless = type(model) is NoLoss

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_probe(self, bus) -> None:
        """Publish transmissions and per-resource busy intervals to ``bus``.

        Attaches the bus to every NIC queue, CPU, and disk of nodes already
        on the fabric; nodes added later are instrumented by ``add_node``.
        """
        self.probe = bus
        for name in self.nodes:
            self._instrument(name)

    def _instrument(self, name: str) -> None:
        nic = self.nics[name]
        nic.egress.probe = self.probe
        nic.ingress.probe = self.probe
        node = self.nodes[name]
        node.cpu.probe = self.probe
        if node.disk is not None:
            node.disk.attach_probe(self.probe)

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_node(self, node: Node, bandwidth: float | None = None) -> Node:
        """Attach ``node`` to the switch with its own NIC."""
        if node.name in self.nodes:
            raise NetworkError(f"node {node.name!r} already attached")
        # The NIC first: a bad bandwidth raises before anything is registered.
        nic = Nic(
            self.sim, node.name, bandwidth if bandwidth is not None else self.default_bandwidth
        )
        self.nodes[node.name] = node
        self.nics[node.name] = nic
        self._endpoints[node.name] = (node, nic, node.deliver)
        if self.probe is not None:
            self._instrument(node.name)
        return node

    def node(self, name: str) -> Node:
        """Look up an attached node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    def nic(self, name: str) -> Nic:
        """Look up a node's NIC by node name."""
        try:
            return self.nics[name]
        except KeyError:
            raise NetworkError(f"unknown node {name!r}") from None

    # ------------------------------------------------------------------
    # Multicast groups
    # ------------------------------------------------------------------
    def join(self, group: str, node_name: str) -> None:
        """Subscribe ``node_name`` to multicast ``group`` (idempotent)."""
        if node_name not in self.nodes:
            raise NetworkError(f"unknown node {node_name!r}")
        members = self._groups.setdefault(group, [])
        if node_name not in members:
            members.append(node_name)

    def leave(self, group: str, node_name: str) -> None:
        """Unsubscribe ``node_name`` from ``group`` (idempotent)."""
        members = self._groups.get(group, [])
        if node_name in members:
            members.remove(node_name)

    def members(self, group: str) -> list[str]:
        """Current subscribers of ``group`` (copy)."""
        return list(self._groups.get(group, []))

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, port: str, msg: Any, size: int) -> None:
        """Unicast ``msg`` (``size`` bytes) from ``src`` to ``dst``.

        One frame per message: egress serialization, the per-leg loss
        draw and the queueing of the frame's first hop (:meth:`_route`,
        one switch delay after departure) all happen here. The hop is
        pushed onto the kernel's heap directly, as
        :meth:`FifoServer.submit <repro.sim.server.FifoServer.submit>`
        pushes its completion, at the program point where
        ``Simulator.at`` would draw its seq. ``at``'s test that the time
        is not behind the clock is omitted because it cannot fail: the
        egress queue departs no earlier than now, and
        ``propagation_delay`` is validated non-negative when assigned.
        """
        endpoints = self._endpoints
        endpoint = endpoints.get(src)
        if endpoint is None:
            raise NetworkError(f"unknown node {src!r}")
        if dst not in endpoints:
            raise NetworkError(f"unknown node {dst!r}")
        node, nic, _ = endpoint
        if not node.up:
            return  # a crashed machine transmits nothing
        depart = nic.egress.submit(size)
        nic.bytes_sent += size
        nic.messages_sent += 1
        sim = self.sim
        probe = self.probe
        if probe is not None and "net.enqueue" in probe.subscribers:
            probe.emit(
                "net.enqueue", sim.now, src,
                dst=dst, port=port, msg=type(msg).__name__, size=size,
            )
        if not self._lossless and self._loss.should_drop(self._rng, src, dst, size):
            self.messages_dropped += 1
            if probe is not None and "net.drop" in probe.subscribers:
                probe.emit(
                    "net.drop", sim.now, src,
                    dst=dst, port=port, msg=type(msg).__name__, size=size,
                )
            return
        heappush(sim._queue._heap, (
            depart + self._propagation_delay, next(sim._seq),
            self._route, (dst, port, src, msg, size),
        ))

    def multicast(self, src: str, group: str, port: str, msg: Any, size: int) -> None:
        """IP-multicast ``msg`` to every subscriber of ``group``.

        The sender serializes the frame once; the switch fans it out to
        each subscriber (including the sender itself if subscribed, with
        loopback skipping the physical ingress queue).

        The remote fan-out is *coalesced*: all surviving subscribers share
        one scheduled first hop (:meth:`_route_group`, on a single switch
        :meth:`_fan_in`) that performs every ingress submission in
        membership order — one heap operation for the propagation leg
        instead of one per subscriber. Loss is still
        decided per receiver leg at send time, in membership order, so the
        random draw sequence is identical to per-subscriber scheduling;
        and because per-subscriber arrival events would carry consecutive
        sequence numbers at one instant, delivering them from a single
        event preserves the exact global event order.

        Like :meth:`send`, it pushes its heap entries itself and unchecked
        (loopback at the departure time, the fan-in one validated
        ``propagation_delay`` later).
        """
        endpoint = self._endpoints.get(src)
        if endpoint is None:
            raise NetworkError(f"unknown node {src!r}")
        node, nic, _ = endpoint
        if not node.up:
            return
        members = self._groups.get(group, [])
        if not members:
            return
        sim = self.sim
        depart = nic.egress.submit(size)
        nic.bytes_sent += size
        nic.messages_sent += 1
        probe = self.probe
        if probe is not None and "net.enqueue" in probe.subscribers:
            probe.emit(
                "net.enqueue", sim.now, src,
                group=group, fanout=len(members), port=port,
                msg=type(msg).__name__, size=size,
            )
        heap = sim._queue._heap
        seq = sim._seq
        # Kernel loopback: no switch hop, no ingress queue (size 0).
        loopback = (src, port, src, msg, 0)
        targets: list[str] = []
        if self._lossless:
            for dst in members:
                if dst == src:
                    heappush(heap, (depart, next(seq), self._deliver, loopback))
                else:
                    targets.append(dst)
        else:
            rng = self._rng
            should_drop = self._loss.should_drop
            for dst in members:
                if dst == src:
                    heappush(heap, (depart, next(seq), self._deliver, loopback))
                elif should_drop(rng, src, dst, size):
                    self.messages_dropped += 1
                    if probe is not None and "net.drop" in probe.subscribers:
                        probe.emit(
                            "net.drop", sim.now, src,
                            dst=dst, port=port, msg=type(msg).__name__, size=size,
                        )
                else:
                    targets.append(dst)
        if targets:
            # One switched-arrival event for the whole fan-out.
            heappush(heap, (
                depart + self._propagation_delay, next(seq),
                self._route_group, (targets, port, src, msg, size),
            ))

    # ------------------------------------------------------------------
    # Internal plumbing
    # ------------------------------------------------------------------
    def _fan_in(self, targets: list[str], port: str, src: str, msg: Any, size: int) -> None:
        # The coalesced multicast arrival: one event, every subscriber's
        # ingress submission, in membership order (see multicast()).
        deliver = self._deliver
        for dst in targets:
            deliver(dst, port, src, msg, size)

    def _deliver(self, dst: str, port: str, src: str, msg: Any, size: int) -> None:
        endpoint = self._endpoints.get(dst)
        if endpoint is None:
            return
        node, nic, dispatch = endpoint
        if not node.up:
            return
        probe = self.probe
        if probe is not None and "net.deliver" in probe.subscribers:
            probe.emit(
                "net.deliver", self.sim.now, dst,
                src=src, port=port, msg=type(msg).__name__, size=size,
            )
        if size > 0:
            # The ingress queue schedules the dispatch itself.
            nic.ingress.submit(size, dispatch, (port, src, msg))
            nic.bytes_received += size
            nic.messages_received += 1
        else:
            nic.messages_received += 1
            dispatch(port, src, msg)

    # What a frame does one switch delay after leaving its sender. On a
    # single switch it has arrived; a fabric with more between sender and
    # receiver (GeoNetwork) overrides these two and nothing else.
    _route = _deliver  # unicast: (dst, port, src, msg, size)
    _route_group = _fan_in  # multicast survivors: (targets, port, src, msg, size)
