"""Paxos wire messages (Phase 1a/1b, Phase 2a/2b, Nack, Decision).

Sizes follow the paper's accounting: control messages are small (tens of
bytes); only messages carrying the client value pay its full size.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..calibration import CONTROL_MESSAGE_SIZE
from .value import Value

__all__ = [
    "Prepare", "Promise", "Accept", "Accepted", "Nack", "Decision", "LearnRequest",
    "ACCEPTOR_PORT", "LEARNER_PORT", "PROPOSER_PORT",
]

# The port each role listens on; every role addresses the others by them.
ACCEPTOR_PORT = "paxos.acceptor"
LEARNER_PORT = "paxos.learner"
PROPOSER_PORT = "paxos.proposer"


@dataclass(frozen=True, slots=True)
class Prepare:
    """Phase 1a: the coordinator asks acceptors to promise round ``rnd``."""

    instance: int
    rnd: int

    @property
    def size(self) -> int:
        return CONTROL_MESSAGE_SIZE


@dataclass(frozen=True, slots=True)
class Promise:
    """Phase 1b: an acceptor's promise, carrying any previously accepted value."""

    instance: int
    rnd: int
    vrnd: int
    vval: Value | None

    @property
    def size(self) -> int:
        value_bytes = self.vval.size if self.vval is not None else 0
        return CONTROL_MESSAGE_SIZE + value_bytes


@dataclass(frozen=True, slots=True)
class Accept:
    """Phase 2a: the coordinator asks acceptors to accept ``value`` at ``rnd``."""

    instance: int
    rnd: int
    value: Value

    @property
    def size(self) -> int:
        return CONTROL_MESSAGE_SIZE + self.value.size


@dataclass(frozen=True, slots=True)
class Accepted:
    """Phase 2b: an acceptor's acknowledgement of an Accept."""

    instance: int
    rnd: int

    @property
    def size(self) -> int:
        return CONTROL_MESSAGE_SIZE


@dataclass(frozen=True, slots=True)
class Nack:
    """Rejection of a Phase 1a/2a whose round is stale; carries the higher round."""

    instance: int
    rnd: int
    promised: int

    @property
    def size(self) -> int:
        return CONTROL_MESSAGE_SIZE


@dataclass(frozen=True, slots=True)
class Decision:
    """Learn message: ``value`` is chosen for ``instance``."""

    instance: int
    value: Value

    @property
    def size(self) -> int:
        return CONTROL_MESSAGE_SIZE + self.value.size


@dataclass(frozen=True, slots=True)
class LearnRequest:
    """A learner asking for the decision of an instance it missed."""

    instance: int

    @property
    def size(self) -> int:
        return CONTROL_MESSAGE_SIZE
