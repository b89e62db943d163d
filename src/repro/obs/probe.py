"""The probe/trace bus: typed, subscribable simulation events.

A :class:`ProbeBus` is a tiny publish/subscribe hub for the structured
events the simulated substrate can emit:

* ``sim.event`` — the kernel fired a scheduled callback;
* ``net.enqueue`` — a message entered a sender's egress queue (unicast
  carries ``dst``, multicast carries ``group``/``fanout``);
* ``net.deliver`` — a message was handed to a destination node;
* ``net.drop`` — the loss model discarded a receiver leg;
* ``server.busy`` — a FIFO server (CPU, NIC direction, disk drain)
  accepted work occupying ``[start, finish]``;
* ``proposer.multicast`` — a ring proposer submitted a new client value
  (the *proposed* set the integrity oracle checks deliveries against);
* ``learner.decide`` — a ring learner emitted a decided item in logical
  instance order (data batch or skip range, with a content fingerprint);
* ``learner.deliver`` — a multi-ring learner delivered an application
  message in merged order;
* ``learner.rollback`` — a ring learner rewound its decide position to a
  checkpoint (crash recovery);
* ``learner.rewind`` — a multi-ring learner rewound its merged delivery
  sequence to a checkpoint;
* ``replica.apply`` — an SMR replica applied a command to its state
  machine;
* ``replica.restore`` — a restarted replica reloaded its latest durable
  checkpoint;
* ``admission.delay`` — a proposer's admission controller queued a
  submission in its bounded intake queue instead of admitting it;
* ``admission.shed`` — a proposer's admission controller rejected a
  submission outright (intake queue full);
* ``population.complete`` — a client population observed the final
  response for a request (the client-visible acknowledgement);
* ``failover.suspect`` — a ring acceptor stopped hearing its coordinator
  and initiated a takeover;
* ``failover.takeover`` — a ring installed a new coordinator (carries
  whether a spare filled the hole or the ring degraded in size);
* ``reconfig.epoch`` — a role observed a configuration epoch boundary
  (a decided ``ConfigChange`` cut, or the manager opening an epoch);
* ``reconfig.drain`` — a learner finished draining an old ring's suffix
  and switched a group's subscription to its new ring.

The protocol-level kinds exist for the safety oracles of ``repro.check``:
passive checkers subscribe to them and verify agreement, integrity,
per-ring total order and cross-ring partial order while a simulation
runs.

Emitters hold an optional bus reference and guard every emission with
``probe is not None and "<kind>" in probe.subscribers``: an unobserved
site costs an attribute test, plus one dict membership test under an
attached bus — never a call — and builds no ``emit`` arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "ADMISSION_DELAY",
    "ADMISSION_SHED",
    "EVENT_FIRED",
    "FAILOVER_SUSPECT",
    "FAILOVER_TAKEOVER",
    "KINDS",
    "LEARNER_DECIDE",
    "LEARNER_DELIVER",
    "NET_DELIVER",
    "NET_DROP",
    "NET_ENQUEUE",
    "LEARNER_REWIND",
    "LEARNER_ROLLBACK",
    "POPULATION_COMPLETE",
    "PROPOSER_MULTICAST",
    "RECONFIG_DRAIN",
    "RECONFIG_EPOCH",
    "REPLICA_APPLY",
    "REPLICA_RESTORE",
    "SERVER_BUSY",
    "ProbeEvent",
    "ProbeBus",
]

EVENT_FIRED = "sim.event"
NET_ENQUEUE = "net.enqueue"
NET_DELIVER = "net.deliver"
NET_DROP = "net.drop"
SERVER_BUSY = "server.busy"
PROPOSER_MULTICAST = "proposer.multicast"
LEARNER_DECIDE = "learner.decide"
LEARNER_DELIVER = "learner.deliver"
LEARNER_ROLLBACK = "learner.rollback"
LEARNER_REWIND = "learner.rewind"
REPLICA_APPLY = "replica.apply"
REPLICA_RESTORE = "replica.restore"
ADMISSION_DELAY = "admission.delay"
ADMISSION_SHED = "admission.shed"
POPULATION_COMPLETE = "population.complete"
FAILOVER_SUSPECT = "failover.suspect"
FAILOVER_TAKEOVER = "failover.takeover"
RECONFIG_EPOCH = "reconfig.epoch"
RECONFIG_DRAIN = "reconfig.drain"

# The closed set of kinds: what a subscriber without a kind receives, and
# what every emit site under src/repro names (tests/unit/test_obs.py).
KINDS = (
    EVENT_FIRED, NET_ENQUEUE, NET_DELIVER, NET_DROP, SERVER_BUSY,
    PROPOSER_MULTICAST, LEARNER_DECIDE, LEARNER_DELIVER, LEARNER_ROLLBACK,
    LEARNER_REWIND, REPLICA_APPLY, REPLICA_RESTORE, ADMISSION_DELAY,
    ADMISSION_SHED, POPULATION_COMPLETE, FAILOVER_SUSPECT, FAILOVER_TAKEOVER,
    RECONFIG_EPOCH, RECONFIG_DRAIN,
)


@dataclass(slots=True)
class ProbeEvent:
    """One published occurrence: when, what kind, who, and details.

    Immutable by contract, like the wire messages: every subscriber of a
    kind receives the same object. The test suite enforces it
    (``tests/conftest.py``); construction does not pay for it.
    """

    time: float
    kind: str
    source: str
    data: dict[str, Any]

    def as_record(self) -> dict[str, Any]:
        """Flat dict form for the JSONL exporter."""
        return {"type": "probe", "t": self.time, "kind": self.kind,
                "source": self.source, **self.data}


Subscriber = Callable[[ProbeEvent], None]


class ProbeBus:
    """Typed publish/subscribe bus for simulation probe events.

    >>> bus = ProbeBus()
    >>> seen = []
    >>> _ = bus.subscribe(seen.append, kind="net.enqueue")
    >>> bus.emit("net.enqueue", 0.5, "n0", dst="n1", size=64)
    >>> seen[0].data["dst"]
    'n1'
    """

    def __init__(self) -> None:
        # kind -> subscribers in subscription order; a key exists only
        # while its kind has one (the emitters' gate). A removal installs
        # a new list, so a dispatch in flight finishes over the one it began.
        self.subscribers: dict[str, list[Subscriber]] = {}
        self.events_emitted = 0

    def subscribe(self, fn: Subscriber, kind: str | None = None) -> Callable[[], None]:
        """Receive events of ``kind`` (every kind of ``KINDS`` when None).

        Returns a zero-argument unsubscriber; calling it again is a no-op.
        """
        kinds = KINDS if kind is None else (kind,)
        for k in kinds:
            self.subscribers.setdefault(k, []).append(fn)

        def remove() -> None:
            nonlocal kinds
            for k in kinds:
                subs = self.subscribers[k]
                at = subs.index(fn)
                rest = subs[:at] + subs[at + 1:]
                if rest:
                    self.subscribers[k] = rest
                else:
                    del self.subscribers[k]
            kinds = ()

        return remove

    def emit(self, kind: str, time: float, source: str, **data: Any) -> None:
        """Publish one event; no-op (after one lookup) with no subscriber."""
        subs = self.subscribers.get(kind)
        if subs is None:
            return
        self.events_emitted += 1
        event = ProbeEvent(time, kind, source, data)
        for fn in subs:
            fn(event)
