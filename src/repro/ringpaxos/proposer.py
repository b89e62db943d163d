"""Ring Paxos proposers (clients).

A proposer wraps application payloads into :class:`ClientValue` envelopes —
stamped with the multicast time for latency measurement — and sends them to
the ring's coordinator (paper, Figure 3, step 1). Submissions are sequenced
and retransmitted until the coordinator acknowledges them, so proposer
message loss cannot violate validity. If the ring is reconfigured, pointing
the proposer at the new coordinator is a single attribute update.
"""

from __future__ import annotations


from ..metrics import Counter
from ..sim.network import Network
from ..sim.node import Node
from ..sim.process import PeriodicTimer, Process
from .config import RingConfig
from .messages import ClientValue, Submit, SubmitAck

__all__ = ["RingProposer"]

# At most this many overdue submissions are resent per retransmit tick
# (every ``retry_timeout``), so a long backlog cannot flood the coordinator.
# A retarget is not capped: the new coordinator needs the whole backlog.
RETRANSMIT_BURST = 64


class RingProposer(Process):
    """Submits client values to one ring's coordinator, reliably."""

    def __init__(
        self,
        sim,
        network: Network,
        node: Node,
        config: RingConfig,
    ) -> None:
        super().__init__(sim, f"proposer@{node.name}/ring{config.ring_id}")
        self.network = network
        self.node = node
        self.config = config
        self.coordinator = config.coordinator
        self.seq = 0
        self.sent = Counter("values_sent")
        self.sent_bytes = Counter("bytes_sent")
        self.retransmissions = Counter("retransmissions")
        self._unacked: dict[int, ClientValue] = {}
        self._sent_at: dict[int, float] = {}  # seq -> when it was last sent
        self._received_cum = -1  # retransmission-suppression watermark
        self._retransmit_timer = PeriodicTimer(sim, config.retry_timeout, self._retransmit)
        # Called with the SubmitAck whenever a cumulative ack drains
        # outstanding submissions: a multi-ring proposer releases queued
        # intake and answers a drain on it, and the reconfiguration
        # manager reads where its cut was decided.
        self.on_ack = None
        node.register(f"rp{config.ring_id}.submitack", self._on_ack)

    @property
    def unacked(self) -> int:
        """Submissions not yet acknowledged by the coordinator."""
        return len(self._unacked)

    def multicast(self, payload: object, size: int, group: int = 0) -> ClientValue:
        """Send one application message to the ring; returns the envelope.

        ``group`` tags the value with its atomic-multicast group id — only
        meaningful when several groups share one ring (Section IV-D).

        A crashed proposer drops the submission without consuming a
        sequence number: the coordinator restores per-sender FIFO order by
        buffering seq gaps, and a seq burned while down would leave a hole
        nothing can ever fill — wedging the sender's stream for good. A bad
        ``size`` (negative, NaN) raises before anything is counted or sent.
        """
        if not size >= 0:  # written so that NaN is rejected too
            raise ValueError(f"message size must be non-negative, got {size!r}")
        # (payload, size, sender, seq, created_at, group)
        value = ClientValue(payload, size, self.node.name, self.seq, self.sim.now, group)
        if not self.crashed:
            self.seq += 1
            self.sent.value += 1
            self.sent_bytes.value += size
            self._unacked[value.seq] = value
            probe = self.sim.probe
            if probe is not None and "proposer.multicast" in probe.subscribers:
                probe.emit(
                    "proposer.multicast", self.sim.now, self.name,
                    sender=value.sender, seq=value.seq, group=group,
                    ring=self.config.ring_id, size=size,
                )
            self._send(value)
            if not self._retransmit_timer.running:
                self._retransmit_timer.start()
        return value

    def _send(self, value: ClientValue) -> None:
        # The floor (lowest undecided seq) lets the coordinator skip seq
        # ranges this proposer will never send — a bumped seq after a
        # group remap must not read as a gap to wait on.
        floor = next(iter(self._unacked)) if self._unacked else self.seq
        self._sent_at[value.seq] = self.sim.now
        msg = Submit(value, floor)
        self.network.send(
            self.node.name, self.coordinator, self.config.coord_port, msg, msg.size
        )

    def _on_ack(self, src: str, msg) -> None:
        # A deposed coordinator's late ack would stop the retransmissions.
        if self.crashed or src != self.coordinator or not isinstance(msg, SubmitAck):
            return
        self._received_cum = max(self._received_cum, msg.received_cum)
        # Values are kept until *decided* (they must survive coordinator
        # crashes); seqs are inserted in ascending order, so the dict's
        # insertion order lets cumulative acks drain from the front.
        drained = False
        while self._unacked:
            first = next(iter(self._unacked))
            if first > msg.decided_cum:
                break
            del self._unacked[first]
            del self._sent_at[first]
            drained = True
        if not self._unacked:
            self._retransmit_timer.stop()
        if drained and self.on_ack is not None:
            self.on_ack(msg)

    def _retransmit(self) -> None:
        """Resend overdue submissions the coordinator has not received.

        A submission is overdue once it was last sent ``retry_timeout``
        ago; one sent since is in flight, and resending it would only put
        a duplicate on the wire ahead of fresh values. Anything at or below
        the received watermark is already in the coordinator's pipeline
        and only awaits its decision — resending it would just burn
        bandwidth (and under backlog, collapse the ring).
        """
        if self.crashed or not self._unacked:
            self._retransmit_timer.stop()
            return
        # Overdue is ``sent_at + timeout <= now``, not ``sent_at <= now -
        # timeout``: a value resent at a tick is due exactly at the next.
        now = self.sim.now
        timeout = self.config.retry_timeout
        sent_at = self._sent_at
        burst = 0
        for seq in self._unacked:  # ascending insertion order
            if seq <= self._received_cum or sent_at[seq] + timeout > now:
                continue
            self.retransmissions.value += 1
            self._send(self._unacked[seq])
            burst += 1
            if burst >= RETRANSMIT_BURST:
                break
        if burst == 0:
            # Everything outstanding is in the coordinator's pipeline or
            # in flight. Once the oldest value has waited a whole timeout
            # for its decided ack, which may be lost, probe with it: the
            # duplicate elicits a fresh ack carrying the current watermarks.
            oldest = next(iter(self._unacked))
            if sent_at[oldest] + timeout <= now:
                self.retransmissions.value += 1
                self._send(self._unacked[oldest])

    def retarget(self, config: RingConfig) -> None:
        """Follow a reconfigured ring: submissions go to the new
        coordinator, and the received watermark rewinds — whatever only
        the dead coordinator had received must be offered again. Every
        undecided value goes to the new coordinator at once: waiting for
        the retransmit tick, capped at ``RETRANSMIT_BURST``, would add up
        to a ``retry_timeout`` and a tick per burst to the takeover."""
        self.config = config
        self.coordinator = config.coordinator
        self._received_cum = -1
        if self.crashed or not self._unacked:
            return
        for value in self._unacked.values():
            self.retransmissions.value += 1
            self._send(value)
        if not self._retransmit_timer.running:
            self._retransmit_timer.start()

    def on_crash(self) -> None:
        self._retransmit_timer.stop()

    def on_restart(self) -> None:
        if self._unacked:
            self._retransmit_timer.start()
