"""The Paxos learner role.

Learners receive Decision messages and deliver values in instance order —
buffering decisions that arrive ahead of a gap. Lost Decision messages are
recovered by inquiring other nodes (paper, Section III-B): a periodic gap
check sends :class:`~repro.paxos.messages.LearnRequest` for the lowest
missing instance to a recovery peer. Ring Paxos replaces the decision path
with ip-multicast plus a preferential acceptor; see
``repro.ringpaxos.learner``.
"""

from __future__ import annotations

from ..calibration import CPU_FIXED_COST_SMALL_MESSAGE
from ..sim.network import Network
from ..sim.node import Node
from ..sim.process import PeriodicTimer, Process
from .messages import LEARNER_PORT, PROPOSER_PORT, Decision, LearnRequest
from .value import Value

__all__ = ["Learner"]

# Seconds between gap checks of a learner with recovery peers.
RECOVERY_INTERVAL = 0.05


class Learner(Process):
    """Delivers decided values in gapless instance order.

    Parameters
    ----------
    recovery_peers:
        Node names (typically proposers) that can answer
        :class:`LearnRequest` for missed decisions. When non-empty, a
        periodic timer re-requests the lowest missing instance whenever
        later decisions are already buffered (i.e. a gap is observable).
    """

    def __init__(
        self,
        sim,
        network: Network,
        node: Node,
        recovery_peers: list[str] | None = None,
    ) -> None:
        super().__init__(sim, f"learner@{node.name}")
        self.network = network
        self.node = node
        self.recovery_peers = list(recovery_peers or [])
        self.next_instance = 0
        self.delivered: list[tuple[int, Value]] = []
        self.recovery_requests = 0
        self._pending: dict[int, Value] = {}
        self._recovery_rr = 0
        node.register(LEARNER_PORT, self._on_message)
        self._recovery_timer: PeriodicTimer | None = None
        if self.recovery_peers:
            self._recovery_timer = PeriodicTimer(sim, RECOVERY_INTERVAL, self._check_gaps)
            self._recovery_timer.start()

    @property
    def buffered(self) -> int:
        """Number of out-of-order decisions waiting for a gap to fill."""
        return len(self._pending)

    def _on_message(self, src: str, msg) -> None:
        if self.crashed or not isinstance(msg, Decision):
            return
        self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._learn, msg)

    def _learn(self, msg: Decision) -> None:
        if self.crashed or msg.instance < self.next_instance:
            return  # duplicate of an already delivered instance
        self._pending.setdefault(msg.instance, msg.value)
        while self.next_instance in self._pending:
            value = self._pending.pop(self.next_instance)
            self.delivered.append((self.next_instance, value))
            self.next_instance += 1

    def _check_gaps(self) -> None:
        """Periodically inquire about the head-of-line instance.

        Requesting ``next_instance`` unconditionally (peers ignore requests
        for undecided instances) also recovers *trailing* losses, where the
        final decision of a burst was dropped and no later decision exists
        to make the gap observable.
        """
        if self.crashed:
            return
        peer = self.recovery_peers[self._recovery_rr % len(self.recovery_peers)]
        self._recovery_rr += 1
        req = LearnRequest(self.next_instance)
        self.network.send(self.node.name, peer, PROPOSER_PORT, req, req.size)
        self.recovery_requests += 1

    def on_crash(self) -> None:
        if self._recovery_timer is not None:
            self._recovery_timer.stop()

    def on_restart(self) -> None:
        if self._recovery_timer is not None:
            self._recovery_timer.start()
