"""Ring Paxos wire messages and decided-item types.

Consensus in Ring Paxos is executed on *value IDs* (paper, Section III-B):
the Phase 2A ip-multicast carries the full client values once, and every
other protocol message refers to them by ID. Decided items are either a
:class:`DataBatch` (client values batched into one instance) or a
:class:`SkipRange` (n consecutive empty instances decided by one consensus
execution — Multi-Ring Paxos's skip mechanism, Section IV-B/IV-D).

Every class here is a plain ``@dataclass(slots=True, unsafe_hash=True)``:
equality and hash are by value, so messages are set members and dict
keys, and construction is one slot store per field. Messages are
*immutable by contract*: a value is built once and shared by reference
by every hop, log and learner that sees it, so nothing may store to one
after ``__init__`` returns. No instance enforces that (a frozen
dataclass pays an ``object.__setattr__`` call per field per message);
the test suite does, with the write-once ``__setattr__`` that
``tests/conftest.py`` installs on every class exported here. What is
constant for a message — a fixed wire size, a batch's byte count — is a
class attribute or is computed once at construction, never on a hop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import ClassVar

from ..calibration import CONTROL_MESSAGE_SIZE

__all__ = [
    "CONTROL_GROUP",
    "ClientValue",
    "ConfigChange",
    "DataBatch",
    "MoveReply",
    "MoveRequest",
    "SkipRange",
    "Submit",
    "SubmitAck",
    "Phase2A",
    "Phase2B",
    "DecisionAnnounce",
    "Heartbeat",
    "RepairRequest",
    "RepairReply",
    "CheckpointAck",
    "PrepareRange",
    "PromiseRange",
    "CoordinatorChange",
    "value_id_of",
]

_DECISION_ENTRY_BYTES = 12  # (instance, value id) pair on the wire
_size_of = attrgetter("size")

# Sentinel group id for in-ring control traffic (reconfiguration cuts).
# Real groups are non-negative; every learner receives control values on
# any ring it subscribes to, regardless of its group subscriptions.
CONTROL_GROUP = -1


@dataclass(slots=True, unsafe_hash=True)
class ClientValue:
    """One application message multicast by a proposer.

    ``created_at`` stamps the multicast time so learners can measure
    end-to-end delivery latency without clock plumbing.
    """

    payload: object
    size: int
    sender: str = ""
    seq: int = 0
    created_at: float = 0.0
    group: int = 0


@dataclass(slots=True, unsafe_hash=True)
class DataBatch:
    """A batch of client values decided in one consensus instance.

    ``size`` is computed once at construction: the batch is immutable and
    its size is re-read on every hop of every message that carries it.
    """

    value_id: int
    values: tuple[ClientValue, ...]
    size: int = field(init=False, compare=False, repr=False)

    # A data batch occupies exactly one logical instance.
    instance_count: ClassVar[int] = 1

    def __post_init__(self) -> None:
        self.size = sum(map(_size_of, self.values))  # no generator frame


@dataclass(slots=True, unsafe_hash=True)
class SkipRange:
    """``count`` consecutive skip (no-op) instances, decided at once.

    Decided at instance ``k``, it stands for logical instances
    ``k .. k+count-1`` all carrying the bottom value; the next instance
    used by the coordinator is ``k + count``. Executing any number of
    skips therefore costs one consensus execution (paper, Section IV-D).
    """

    count: int
    # Logical instances covered; read on every hop, so a slot filled at
    # construction (``DataBatch``'s is the class attribute), not a property.
    instance_count: int = field(init=False, compare=False, repr=False)

    # Constant wire size: a class attribute, not a property — ``size`` is
    # read on every hop of every message, and the descriptor call is
    # measurable at that frequency.
    size: ClassVar[int] = CONTROL_MESSAGE_SIZE

    def __post_init__(self) -> None:
        self.instance_count = self.count


def value_id_of(instance: int, rnd: int, item: DataBatch | SkipRange) -> int:
    """The ID consensus on ``item`` at ``instance`` in round ``rnd`` runs on:
    a batch's own (numbered from ``rnd * 2**32``), else one only this skip has."""
    return item.value_id if isinstance(item, DataBatch) else -instance - 1 - (rnd << 32)


@dataclass(slots=True, unsafe_hash=True)
class Submit:
    """Proposer -> coordinator: please order this client value.

    Submissions are sequenced per proposer (``value.seq``) so the
    coordinator can deduplicate retransmissions and restore FIFO order —
    one-to-one links may lose messages (Section II-A).

    ``floor`` is the sender's lowest still-undecided seq at send time:
    every seq below it is decided and will never be sent (again). The
    coordinator may skip its expected-seq cursor up to the floor — after
    a group remap bumps a sender's seq past its old ring's (to keep
    (sender, seq, group) identities unique across the move), the skipped
    range would otherwise be a gap the in-order ingestion waits on
    forever.
    """

    value: ClientValue
    floor: int = 0

    @property
    def size(self) -> int:
        return CONTROL_MESSAGE_SIZE + self.value.size


@dataclass(slots=True, unsafe_hash=True)
class SubmitAck:
    """Coordinator -> proposer acknowledgement, with two watermarks.

    ``received_cum``: all submissions <= it are in the coordinator's
    pipeline — the proposer stops retransmitting them (flow control).
    ``decided_cum``: all submissions <= it are *decided* — they survive
    any coordinator crash, so the proposer may forget them (validity).
    ``decided_instance``: the instance that decided ``decided_cum``
    (-1 before any), so a client learns where its value was ordered —
    the reconfiguration manager reads a join cut's J from it.
    After a coordinator change, the proposer rewinds its retransmission
    watermark to -1 (the new coordinator has acked nothing yet) and
    sends it every undecided value: whatever only the dead coordinator
    had received is offered again to the new one.
    """

    received_cum: int
    decided_cum: int
    decided_instance: int = -1

    size: ClassVar[int] = CONTROL_MESSAGE_SIZE


@dataclass(slots=True, unsafe_hash=True)
class Phase2A:
    """Coordinator's ip-multicast: instance, round, value id, full batch.

    The coordinator sets ``value_id`` (:func:`value_id_of` the item) for
    acceptors and learners to read; it rides in the fixed header.
    ``decisions`` piggybacks recently decided (instance, value id) pairs so
    learners usually learn outcomes at zero extra message cost (paper,
    Figure 3 step 6).
    """

    instance: int
    rnd: int
    value_id: int
    item: DataBatch | SkipRange
    attempt: int = 0
    decisions: tuple[tuple[int, int], ...] = ()

    @property
    def size(self) -> int:
        return CONTROL_MESSAGE_SIZE + self.item.size + _DECISION_ENTRY_BYTES * len(self.decisions)


@dataclass(slots=True, unsafe_hash=True)
class Phase2B:
    """The small accept token forwarded along the ring (one per instance)."""

    instance: int
    rnd: int
    value_id: int
    attempt: int
    accepts: int

    size: ClassVar[int] = CONTROL_MESSAGE_SIZE


@dataclass(slots=True, unsafe_hash=True)
class DecisionAnnounce:
    """Standalone decision multicast (used when no 2A is due to carry it)."""

    decisions: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return CONTROL_MESSAGE_SIZE + _DECISION_ENTRY_BYTES * len(self.decisions)


@dataclass(slots=True, unsafe_hash=True)
class Heartbeat:
    """Idle-coordinator liveness beacon; carries the coordinator's next
    instance: every instance below it has been started, not necessarily
    decided. Learners read it as evidence that those instances exist."""

    next_instance: int

    size: ClassVar[int] = CONTROL_MESSAGE_SIZE


@dataclass(slots=True, unsafe_hash=True)
class RepairRequest:
    """Learner -> preferential acceptor (or acceptor -> coordinator):
    resend what is needed to decide ``count`` instances from ``instance``.

    Ranged requests make recovery after an outage practical: a learner
    that missed seconds of traffic recovers in a few round trips instead
    of one per instance.
    """

    instance: int
    count: int = 1

    size: ClassVar[int] = CONTROL_MESSAGE_SIZE


@dataclass(slots=True, unsafe_hash=True)
class RepairReply:
    """Answer to a repair: consecutive decided items from ``instance``.

    ``items`` are the decided items for instances ``instance``,
    ``instance + items[0].instance_count``, ... — consecutive by
    construction; the replier stops at its first unknown instance or at
    its byte budget.
    """

    instance: int
    items: tuple[DataBatch | SkipRange, ...]

    @property
    def size(self) -> int:
        return CONTROL_MESSAGE_SIZE + sum(map(_size_of, self.items))


@dataclass(slots=True, unsafe_hash=True)
class CheckpointAck:
    """Replica -> ring members: a checkpoint covering ``< instance`` is durable.

    Sent per subscribed ring after a replica's state-machine snapshot
    reaches disk. Acceptors keep the minimum watermark across replicas
    and truncate their Paxos log (``forget_up_to``) below it: instances
    every replica has durably checkpointed no longer need the consensus
    log for recovery.
    """

    replica: str
    ring_id: int
    instance: int

    size: ClassVar[int] = CONTROL_MESSAGE_SIZE


@dataclass(slots=True, unsafe_hash=True)
class ConfigChange:
    """An epoch cut, decided *in-ring* as a control value's payload.

    A group remap installs two cuts. The reconfiguration manager submits
    each as an ordinary :class:`ClientValue` on the :data:`CONTROL_GROUP`
    sentinel group through its own ring proposer, so each cut has a
    definite position in a ring's decided stream and the proposer's
    ``SubmitAck`` says which. Neither is submitted before every proposer
    reported the group drained off its source ring — every value of the
    group sent there is decided — so the group's old-epoch stream ends
    below both:

    * ``kind="join"`` decided on the *destination* ring at instance J —
      the first instance of the new epoch for the group there (no value
      of the group is ordered on the destination before J);
    * ``kind="switch"`` decided on the *source* ring once the join's
      ack named J, carrying ``join_instance=J`` — it tells learners that
      drain the old ring (including ones not yet subscribed to the
      destination) where to start consuming the new ring.

    ``epoch`` numbers the configuration; every role adopting the cut
    reports it, and the epoch-monotonicity oracle holds each role to a
    non-decreasing sequence.
    """

    epoch: int
    group: int
    old_ring: int
    new_ring: int
    kind: str  # "join" | "switch"
    join_instance: int = -1

    size: ClassVar[int] = CONTROL_MESSAGE_SIZE


@dataclass(slots=True, unsafe_hash=True)
class MoveRequest:
    """Reconfiguration manager -> proposer: hold ``group`` (queue its new
    multicasts; reply once none of its values on ``old_ring`` is
    undecided) or, with ``release``, send it to ``new_ring`` from now on.
    Resent while the :class:`MoveReply` is overdue; a proposer answers
    every copy and ignores one older than the last request it took."""

    epoch: int
    group: int
    old_ring: int
    new_ring: int
    release: bool = False

    size: ClassVar[int] = CONTROL_MESSAGE_SIZE


@dataclass(slots=True, unsafe_hash=True)
class MoveReply:
    """Proposer -> manager: the hold (drained) or release of ``epoch`` is done."""

    epoch: int
    release: bool = False

    size: ClassVar[int] = CONTROL_MESSAGE_SIZE


@dataclass(slots=True, unsafe_hash=True)
class PrepareRange:
    """Phase 1a for all instances >= ``from_instance`` (coordinator change):
    the candidate's gap-free decided prefix, below which it knows all."""

    from_instance: int
    rnd: int

    size: ClassVar[int] = CONTROL_MESSAGE_SIZE


@dataclass(slots=True, unsafe_hash=True)
class CoordinatorChange:
    """Announcement of a reconfigured ring: new layout and round.

    Multicast on the ring's group, so members re-chain the ring and
    learners re-target their repair requests. Proposers are not in the
    group: the deployment points them at the new coordinator (the last
    acceptor in ``acceptors``) when the successor recovers.
    """

    ring_id: int
    acceptors: tuple[str, ...]
    rnd: int

    @property
    def size(self) -> int:
        return CONTROL_MESSAGE_SIZE + 16 * len(self.acceptors)


@dataclass(slots=True, unsafe_hash=True)
class PromiseRange:
    """Phase 1b for a range: every accepted (instance, vrnd, item) from
    ``from_instance`` (the candidate's prefix, or past a truncation), and
    the end of the promiser's gap-free decided prefix — every instance
    below ``decided_prefix`` is decided, so a successor re-proposes only
    above the highest one its quorum reports."""

    from_instance: int
    rnd: int
    accepted: tuple[tuple[int, int, DataBatch | SkipRange], ...] = ()
    decided_prefix: int = 0

    @property
    def size(self) -> int:
        return CONTROL_MESSAGE_SIZE + sum(item.size for _, _, item in self.accepted)
