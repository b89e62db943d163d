"""The Paxos proposer/coordinator role.

Drives consensus instances through Phase 1 (prepare/promise) and Phase 2
(accept/accepted) against a set of acceptors, exactly as recapped in
Section III-A of the paper:

* Phase 1 is value-independent and can be retried with higher rounds after
  a Nack or a timeout.
* In Phase 2 the proposer is forced to adopt the value with the highest
  ``vrnd`` reported by any promise in its quorum; only if none was reported
  may it propose its own value.
* When a majority acknowledges the same round in Phase 2, the value is
  chosen; the proposer announces it to learners with Decision messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..calibration import CPU_FIXED_COST_SMALL_MESSAGE
from ..errors import ConfigurationError
from ..sim.network import Network
from ..sim.node import Node
from ..sim.process import Process
from .ballot import first_round, next_round
from .messages import (
    ACCEPTOR_PORT,
    LEARNER_PORT,
    PROPOSER_PORT,
    Accept,
    Accepted,
    Decision,
    LearnRequest,
    Nack,
    Prepare,
    Promise,
)
from .value import Value

__all__ = ["Proposer"]

# Seconds a phase waits for a quorum before retrying with a higher round.
PHASE_TIMEOUT = 0.05


@dataclass(slots=True)
class _InstanceState:
    """Proposer-side bookkeeping for one consensus instance."""

    value: Value
    on_decide: Callable[[int, Value], None] | None
    rnd: int
    phase: str = "phase1"  # phase1 | phase2 | decided
    promises: dict[str, Promise] = field(default_factory=dict)
    accepts: set[str] = field(default_factory=set)
    timeout_token: int = 0  # bumped per arming; a timeout carrying an older one is stale
    attempts: int = 0


class Proposer(Process):
    """Drives Phase 1/2 for any number of concurrent instances.

    Parameters
    ----------
    acceptors:
        Node names of the acceptor set; a quorum is any majority.
    learners:
        Node names that receive Decision messages.
    proposer_id / n_proposers:
        Identify this proposer's ballot arithmetic (see ``ballot``).

    A phase that gathers no quorum within ``PHASE_TIMEOUT`` seconds is
    retried with a higher round.
    """

    def __init__(
        self,
        sim,
        network: Network,
        node: Node,
        acceptors: list[str],
        learners: list[str] | None = None,
        proposer_id: int = 0,
        n_proposers: int = 1,
    ) -> None:
        super().__init__(sim, f"proposer@{node.name}")
        if not acceptors:
            raise ConfigurationError("a proposer needs at least one acceptor")
        self.network = network
        self.node = node
        self.acceptors = list(acceptors)
        self.learners = list(learners or [])
        self.proposer_id = proposer_id
        self.n_proposers = n_proposers
        self.decided: dict[int, Value] = {}
        self.retries = 0
        self._instances: dict[int, _InstanceState] = {}
        node.register(PROPOSER_PORT, self._on_message)

    @property
    def quorum_size(self) -> int:
        """Majority of the acceptor set."""
        return len(self.acceptors) // 2 + 1

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def propose(
        self,
        instance: int,
        value: Value,
        on_decide: Callable[[int, Value], None] | None = None,
    ) -> None:
        """Start (or re-start) consensus for ``instance`` with ``value``.

        ``on_decide(instance, decided_value)`` fires when the instance
        decides — possibly on a *different* value if another proposer got
        there first (uniform agreement demands adopting it).
        """
        if instance in self.decided:
            if on_decide is not None:
                on_decide(instance, self.decided[instance])
            return
        if instance in self._instances:
            raise ConfigurationError(f"instance {instance} already in flight")
        state = _InstanceState(
            value=value,
            on_decide=on_decide,
            rnd=first_round(self.proposer_id, self.n_proposers),
        )
        self._instances[instance] = state
        self._start_phase1(instance, state)

    # ------------------------------------------------------------------
    # Phase 1
    # ------------------------------------------------------------------
    def _start_phase1(self, instance: int, state: _InstanceState) -> None:
        state.phase = "phase1"
        state.promises.clear()
        state.accepts.clear()
        state.attempts += 1
        msg = Prepare(instance, state.rnd)
        for acc in self.acceptors:
            self.network.send(self.node.name, acc, ACCEPTOR_PORT, msg, msg.size)
        self._arm_timeout(instance, state)

    def _on_promise(self, src: str, msg: Promise) -> None:
        state = self._instances.get(msg.instance)
        if state is None or state.phase != "phase1" or msg.rnd != state.rnd:
            return
        state.promises[src] = msg
        if len(state.promises) >= self.quorum_size:
            self._start_phase2(msg.instance, state)

    # ------------------------------------------------------------------
    # Phase 2
    # ------------------------------------------------------------------
    def _start_phase2(self, instance: int, state: _InstanceState) -> None:
        state.phase = "phase2"
        # The coordinator must adopt the value with the highest vrnd, if any.
        best: Promise | None = None
        for promise in state.promises.values():
            if promise.vval is not None and (best is None or promise.vrnd > best.vrnd):
                best = promise
        proposal = best.vval if best is not None else state.value
        msg = Accept(instance, state.rnd, proposal)
        for acc in self.acceptors:
            self.network.send(self.node.name, acc, ACCEPTOR_PORT, msg, msg.size)
        state.value = proposal
        self._arm_timeout(instance, state)

    def _on_accepted(self, src: str, msg: Accepted) -> None:
        state = self._instances.get(msg.instance)
        if state is None or state.phase != "phase2" or msg.rnd != state.rnd:
            return
        state.accepts.add(src)
        if len(state.accepts) >= self.quorum_size:
            self._decide(msg.instance, state)

    def _decide(self, instance: int, state: _InstanceState) -> None:
        state.phase = "decided"
        del self._instances[instance]
        self.decided[instance] = state.value
        decision = Decision(instance, state.value)
        for learner in self.learners:
            self.network.send(
                self.node.name, learner, LEARNER_PORT, decision, decision.size
            )
        if state.on_decide is not None:
            state.on_decide(instance, state.value)

    # ------------------------------------------------------------------
    # Retries
    # ------------------------------------------------------------------
    def _on_nack(self, src: str, msg: Nack) -> None:
        state = self._instances.get(msg.instance)
        if state is None or msg.rnd != state.rnd:
            return
        self._retry(msg.instance, state, above=msg.promised)

    def _on_timeout(self, instance: int, token: int) -> None:
        state = self._instances.get(instance)
        if state is None or state.timeout_token != token:
            return  # decided, or the phase this timeout guarded is over
        self._retry(instance, state, above=state.rnd)

    def _retry(self, instance: int, state: _InstanceState, above: int) -> None:
        self.retries += 1
        state.rnd = next_round(above, self.proposer_id, self.n_proposers)
        self._start_phase1(instance, state)

    def _arm_timeout(self, instance: int, state: _InstanceState) -> None:
        state.timeout_token += 1
        self.call_later(PHASE_TIMEOUT, self._on_timeout, instance, state.timeout_token)

    # ------------------------------------------------------------------
    # Inbound dispatch
    # ------------------------------------------------------------------
    def _on_message(self, src: str, msg) -> None:
        if self.crashed:
            return
        self.node.cpu.execute(CPU_FIXED_COST_SMALL_MESSAGE, self._dispatch, (src, msg))

    def _dispatch(self, src: str, msg) -> None:
        if self.crashed:
            return
        if isinstance(msg, Promise):
            self._on_promise(src, msg)
        elif isinstance(msg, Accepted):
            self._on_accepted(src, msg)
        elif isinstance(msg, Nack):
            self._on_nack(src, msg)
        elif isinstance(msg, LearnRequest):
            value = self.decided.get(msg.instance)
            if value is not None:
                reply = Decision(msg.instance, value)
                self.network.send(
                    self.node.name, src, LEARNER_PORT, reply, reply.size
                )
