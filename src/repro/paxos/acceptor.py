"""The Paxos acceptor role.

Implements the standard promise/accept state machine from Section III-A of
the paper: an acceptor rejects any request (Phase 1 or 2) whose round is
below the round it last promised, returns previously accepted values with
their rounds in Phase 1b, and acknowledges Phase 2a messages by updating
``(rnd, vrnd, vval)``.

Message handling charges the node's CPU (receive + send costs) and, for
durable storage, waits for the write barrier before replying — these are
the two resources whose saturation the evaluation measures.
"""

from __future__ import annotations

from ..calibration import CPU_FIXED_COST_SMALL_MESSAGE
from ..sim.network import Network
from ..sim.node import Node
from ..sim.process import Process
from .messages import ACCEPTOR_PORT, PROPOSER_PORT, Accept, Accepted, Nack, Prepare, Promise
from .storage import AcceptorStorage

__all__ = ["Acceptor"]


class Acceptor(Process):
    """A Paxos acceptor bound to a node; it listens on ``ACCEPTOR_PORT``
    and replies to the proposer's ``PROPOSER_PORT``."""

    def __init__(
        self,
        sim,
        network: Network,
        node: Node,
        storage: AcceptorStorage,
    ) -> None:
        super().__init__(sim, f"acceptor@{node.name}")
        self.network = network
        self.node = node
        self.storage = storage
        self.promises_made = 0
        self.accepts_made = 0
        self.nacks_sent = 0
        node.register(ACCEPTOR_PORT, self._on_message)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _on_message(self, src: str, msg) -> None:
        if self.crashed:
            return
        self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._dispatch, (src, msg))

    def _dispatch(self, src: str, msg) -> None:
        if self.crashed:
            return
        if isinstance(msg, Prepare):
            self._on_prepare(src, msg)
        elif isinstance(msg, Accept):
            self._on_accept(src, msg)

    def _on_prepare(self, src: str, msg: Prepare) -> None:
        state = self.storage.get(msg.instance)
        if msg.rnd <= state.rnd:
            self._reply(src, Nack(msg.instance, msg.rnd, state.rnd))
            self.nacks_sent += 1
            return
        state.rnd = msg.rnd
        reply = Promise(msg.instance, msg.rnd, state.vrnd, state.vval)
        self.storage.persist(msg.instance, msg.size, self._reply, (src, reply))
        self.promises_made += 1

    def _on_accept(self, src: str, msg: Accept) -> None:
        state = self.storage.get(msg.instance)
        if msg.rnd < state.rnd:
            self._reply(src, Nack(msg.instance, msg.rnd, state.rnd))
            self.nacks_sent += 1
            return
        state.rnd = msg.rnd
        state.vrnd = msg.rnd
        state.vval = msg.value
        reply = Accepted(msg.instance, msg.rnd)
        self.storage.persist(msg.instance, msg.size, self._reply, (src, reply))
        self.accepts_made += 1

    def _reply(self, dst: str, msg) -> None:
        if self.crashed:
            return
        self.network.send(self.node.name, dst, PROPOSER_PORT, msg, msg.size)
