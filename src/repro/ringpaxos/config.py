"""Ring Paxos instance configuration.

One :class:`RingConfig` describes a single ring (one Ring Paxos instance):
its identity, the acceptors laid out in ring order, durability mode, and
the protocol knobs (batching, windows, timeouts). Port and multicast-group
names are derived from the ring id so several rings coexist on one network
— which is exactly what Multi-Ring Paxos does. They are constant for the
life of a ring and named on every send, so they — like ``coordinator`` and
``ring_size``, derived from the layout — are fields filled once in
``__post_init__`` (``dataclasses.replace`` runs it again for the copy), not
properties computed per message. The same ``__post_init__``
validates every knob, so a bad configuration raises
:class:`~repro.errors.ConfigurationError` where it is built — before
``build_ring`` has attached a node.

Ring layout follows the paper's Figure 3: the coordinator is one of the
acceptors and sits at the *end* of the ring, so the Phase 2B message that
the first acceptor creates arrives back at the coordinator carrying every
other acceptor's accept. With the paper's f+1 in-ring acceptors (out of
2f+1 total, the rest spares), a decision requires all in-ring accepts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..calibration import BATCH_SIZE_BYTES, BATCH_TIMEOUT_S
from ..errors import ConfigurationError

__all__ = ["RingConfig"]


@dataclass(slots=True)
class RingConfig:
    """Static description of one Ring Paxos instance.

    Parameters
    ----------
    ring_id:
        Unique small integer identifying the ring; also the group id when
        rings map 1:1 to groups.
    acceptors:
        Node names in ring order. The **last** entry is the coordinator.
    durable:
        False = In-memory Ring Paxos; True = Recoverable (acceptors write
        through their disks before acting).
    batch_size / batch_timeout:
        A consensus instance is triggered when the batch is full or the
        timeout fires (paper, footnote 1; 8 KB batches).
    window:
        Maximum undecided instances in flight at the coordinator.
    retry_timeout:
        Coordinator re-multicast of Phase 2A for undecided instances.
    heartbeat_interval:
        Idle coordinators multicast a small heartbeat at this period (used
        for failure detection and learner liveness).
    suspect_timeout:
        How long the first in-ring acceptor tolerates coordinator silence
        before suspecting it and standing for coordinator (when the ring
        has a :class:`~repro.ringpaxos.reconfig.RingFailover` record); the
        acceptor at ring index ``i`` waits ``(1 + i)`` times as long. Must
        exceed the heartbeat interval, or a merely idle coordinator would
        be suspected between beats.
    acceptor_regions:
        Region name per acceptor (parallel to ``acceptors``), for
        deployments on a :class:`~repro.sim.topology.GeoNetwork`. None
        (the default) leaves placement to the network's default region.
    """

    ring_id: int
    acceptors: list[str]
    durable: bool = False
    batch_size: int = BATCH_SIZE_BYTES
    batch_timeout: float = BATCH_TIMEOUT_S
    window: int = 32
    retry_timeout: float = 0.02
    heartbeat_interval: float = 0.01
    repair_interval: float = 0.01
    suspect_timeout: float = 0.05
    decision_flush_timeout: float = 100e-6
    piggyback_decisions: bool = True
    acceptor_regions: list[str] | None = None
    # Derived from ring_id in __post_init__; not constructor arguments.
    # IP-multicast group joined by acceptors and learners of this ring:
    multicast_group: str = field(init=False, repr=False, compare=False)
    # Port where the coordinator receives proposer submissions:
    coord_port: str = field(init=False, repr=False, compare=False)
    # Port where 2A / decision / heartbeat multicasts arrive:
    mcast_port: str = field(init=False, repr=False, compare=False)
    # Port for Phase 2B messages travelling along the ring:
    ring_port: str = field(init=False, repr=False, compare=False)
    # Port where acceptors answer learner repair requests:
    repair_port: str = field(init=False, repr=False, compare=False)
    # Derived from acceptors the same way (a ring is reconfigured only by
    # ``dataclasses.replace``, never by mutating ``acceptors`` in place).
    # The coordinator: the acceptor at the end of the ring.
    coordinator: str = field(init=False, repr=False, compare=False)
    # Number of in-ring acceptors (f + 1 in the paper's deployment):
    ring_size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.ring_id < 0:
            raise ConfigurationError("ring_id must be non-negative")
        if len(self.acceptors) < 1:
            raise ConfigurationError("a ring needs at least one acceptor")
        if len(set(self.acceptors)) != len(self.acceptors):
            raise ConfigurationError("ring acceptors must be distinct")
        # Each guard is written so that NaN is rejected too.
        if not (self.batch_size > 0 and self.window > 0):
            raise ConfigurationError("batch_size and window must be positive")
        for knob in (
            "batch_timeout", "retry_timeout", "heartbeat_interval",
            "repair_interval", "suspect_timeout", "decision_flush_timeout",
        ):
            value = getattr(self, knob)
            if not value >= 0:
                raise ConfigurationError(f"{knob} must be non-negative, got {value!r}")
        if self.suspect_timeout <= self.heartbeat_interval:
            raise ConfigurationError(
                "suspect_timeout must exceed heartbeat_interval "
                f"({self.suspect_timeout:g} <= {self.heartbeat_interval:g})"
            )
        if self.acceptor_regions is not None and len(self.acceptor_regions) != len(
            self.acceptors
        ):
            raise ConfigurationError(
                "acceptor_regions must name one region per acceptor "
                f"({len(self.acceptor_regions)} regions for {len(self.acceptors)} acceptors)"
            )
        prefix = f"rp{self.ring_id}"
        self.multicast_group = f"{prefix}.group"
        self.coord_port = f"{prefix}.coord"
        self.mcast_port = f"{prefix}.mcast"
        self.ring_port = f"{prefix}.ring"
        self.repair_port = f"{prefix}.repair"
        self.coordinator = self.acceptors[-1]
        self.ring_size = len(self.acceptors)

    def successor(self, node: str) -> str | None:
        """The next hop after ``node`` along the ring (None at the end)."""
        idx = self.acceptors.index(node)
        if idx + 1 < len(self.acceptors):
            return self.acceptors[idx + 1]
        return None

    def first_acceptor(self) -> str:
        """The acceptor that originates the Phase 2B message."""
        return self.acceptors[0]

    def preferential_acceptor(self, learner_index: int) -> str:
        """The acceptor a learner directs repair requests to (paper III-B)."""
        return self.acceptors[learner_index % len(self.acceptors)]

    def with_layout(self, acceptors: list[str], network) -> "RingConfig":
        """This ring laid out over ``acceptors`` (a takeover's new layout),
        each member's region read from the network where regions apply."""
        regions = self.acceptor_regions and [network.region_of[name] for name in acceptors]
        return replace(self, acceptors=list(acceptors), acceptor_regions=regions)
