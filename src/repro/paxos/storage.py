"""Acceptor state storage: the In-memory / Recoverable split.

The durability of a consensus instance is configurable (paper, Section I):

* :class:`InMemoryStorage` — decisions live in the acceptor's RAM only;
  safe while a majority of acceptors stays up. Updates complete
  immediately, and a crash erases everything: ``recover`` returns a
  blank slate (amnesia).
* :class:`DurableStorage` — every state mutation is written through the
  node's :class:`~repro.sim.disk.Disk` (buffered writes, Section VI-A)
  before the acceptor acts on it. The disk's sustained bandwidth is what
  bounds Recoverable Ring Paxos at ~400 Mbps in Figure 1. A crash loses
  only writes whose disk ack had not fired; ``recover`` replays the
  committed image.

The write barrier has commit-on-ack semantics: ``persist`` snapshots the
state being made durable *at call time*, and the snapshot joins the
durable image only when the disk acknowledges the write. A crash that
lands between the write and its ack invalidates the write (epoch guard):
neither the durable image nor the caller's continuation sees it, exactly
as if the machine had lost power with the write still in the volatile
disk cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..errors import ConfigurationError, ProtocolError
from ..sim.disk import Disk

__all__ = ["AcceptorState", "AcceptorStorage", "InMemoryStorage", "DurableStorage", "select_value"]


@dataclass(slots=True)
class AcceptorState:
    """Per-instance acceptor variables (rnd, vrnd, vval).

    ``vval`` holds whatever the owning acceptor accepts: a classic-Paxos
    :class:`~repro.paxos.value.Value`, or a Ring Paxos decided item
    (data batch / skip range). Recovery replays it verbatim.
    """

    rnd: int = -1
    vrnd: int = -1
    vval: object | None = None

    def copy(self) -> AcceptorState:
        return AcceptorState(self.rnd, self.vrnd, self.vval)


def select_value(votes: Iterable[tuple[int, object]]) -> object | None:
    """Paxos value selection over a Phase 1 quorum's ``(vrnd, vval)`` votes:
    the value of the highest-``vrnd`` vote (the first one seen on a tie),
    or None when no vote carries a value."""
    best_rnd, best = -1, None
    for vrnd, value in votes:
        if value is not None and vrnd > best_rnd:
            best_rnd, best = vrnd, value
    return best


class AcceptorStorage:
    """An acceptor's one vote record, with a persistence barrier.

    ``floor`` is the highest promised round (Phase 1 promises cover
    instance ranges, so the floor is a single value, not per instance),
    recorded with ``note_floor`` before persisting; ``get`` returns an
    instance's :class:`AcceptorState`, created on first touch; ``accept``
    is the Phase 2 rule every acceptor votes through. ``persist`` is the
    write barrier: the callback runs once the mutation is durable
    according to the storage class.

    Crash/recovery: ``on_crash`` marks the moment of failure (in-flight
    writes become invalid), ``recover`` rebuilds the volatile state from
    whatever the storage class preserves, and the owning acceptor replays
    the recovered ``votes``.
    """

    def __init__(self) -> None:
        self._states: dict[int, AcceptorState] = {}
        self.floor = -1

    def get(self, instance: int) -> AcceptorState:
        """State for ``instance`` (created blank on first access)."""
        state = self._states.get(instance)
        if state is None:
            state = AcceptorState()
            self._states[instance] = state
        return state

    def accept(self, instance: int, rnd: int, value: object) -> bool:
        """The Phase 2 rule: refused (False, nothing recorded) below the
        promise floor or the instance's round, else ``rnd = vrnd = rnd``,
        ``vval = value``. A round votes for one value per instance."""
        state = self._states.get(instance)
        if state is None:
            state = self._states[instance] = AcceptorState()
        if rnd < state.rnd or rnd < self.floor:
            return False
        if state.vrnd == rnd and state.vval is not value and state.vval != value:
            raise ProtocolError(f"round {rnd} votes twice at instance {instance}: "
                                f"{state.vval!r}, then {value!r}")
        state.rnd = state.vrnd = rnd
        state.vval = value
        return True

    def known_instances(self) -> list[int]:
        """Instances with any recorded state, ascending."""
        return sorted(self._states)

    def votes(self, from_instance: int = 0) -> tuple[tuple[int, int, Any], ...]:
        """``(instance, vrnd, vval)`` of every vote at ``from_instance`` or above,
        ascending: the body of a Phase 1b over an instance range."""
        return tuple((instance, state.vrnd, state.vval)
                     for instance, state in sorted(self._states.items())
                     if instance >= from_instance and state.vrnd >= 0)

    def note_floor(self, rnd: int) -> None:
        """Record a Phase 1 promise floor (made durable by the next persist)."""
        if rnd > self.floor:
            self.floor = rnd

    def persist(self, instance: int, nbytes: int, fn: Callable[..., None], args: tuple) -> None:
        """Make the latest mutation of ``instance`` durable, then run ``fn(*args)``.

        The continuation comes as ``Cpu.execute`` and ``Disk.write`` take
        theirs, ``fn`` and one tuple ``args``: no closure per instance.
        ``instance < 0`` persists only the promise floor (a Phase 1 answer
        must not be sent before the promise survives a crash).
        """
        raise NotImplementedError

    def on_crash(self) -> None:
        """The owning process crashed: invalidate in-flight writes."""

    def recover(self) -> tuple[int, dict[int, AcceptorState]]:
        """Rebuild volatile state after a restart.

        Returns ``(floor, states)`` — the recovered promise floor and the
        per-instance states now backing ``get``. The base (in-memory)
        behaviour is amnesia: everything is reset to blank.
        """
        self._states = {}
        self.floor = -1
        return self.floor, {}

    def forget_up_to(self, instance: int) -> None:
        """Garbage-collect state for all instances <= ``instance``."""
        for key in [k for k in self._states if k <= instance]:
            del self._states[key]


class InMemoryStorage(AcceptorStorage):
    """RAM-only storage: persistence is a no-op barrier."""

    def persist(self, instance: int, nbytes: int, fn: Callable[..., None], args: tuple) -> None:
        fn(*args)


class DurableStorage(AcceptorStorage):
    """Disk-backed storage: the barrier completes when the write acks.

    Two images are kept: the volatile ``_states`` the acceptor mutates,
    and the durable image holding per-instance snapshots committed by
    disk acks. ``recover`` discards the volatile image and reloads the
    durable one — the write-ahead contract of a real acceptor log.
    """

    def __init__(self, disk: Disk) -> None:
        super().__init__()
        if disk is None:
            raise ConfigurationError("DurableStorage requires a node with a disk")
        self.disk = disk
        self._durable: dict[int, AcceptorState] = {}
        self._durable_floor = -1
        # Bumped on every crash: a disk ack whose write predates the
        # crash must neither commit its snapshot nor run its callback.
        self._epoch = 0
        self.writes_invalidated = 0

    def persist(self, instance: int, nbytes: int, fn: Callable[..., None], args: tuple) -> None:
        image = self.get(instance).copy() if instance >= 0 else None
        self.disk.write(
            nbytes, self._commit, (self._epoch, self.floor, instance, image, fn, args)
        )

    def _commit(self, epoch: int, floor: int, instance: int, image: AcceptorState | None,
                fn: Callable[..., None], args: tuple[Any, ...]) -> None:
        """The disk acked: the snapshot joins the image, then ``fn`` runs."""
        if epoch != self._epoch:
            self.writes_invalidated += 1
            return
        if floor > self._durable_floor:
            self._durable_floor = floor
        if image is not None:
            self._durable[instance] = image
        fn(*args)

    def on_crash(self) -> None:
        self._epoch += 1

    def recover(self) -> tuple[int, dict[int, AcceptorState]]:
        """Reload the committed image; in-flight writes are already void."""
        self._epoch += 1
        self._states = {k: s.copy() for k, s in self._durable.items()}
        self.floor = self._durable_floor
        return self.floor, dict(self._states)

    def forget_up_to(self, instance: int) -> None:
        super().forget_up_to(instance)
        for key in [k for k in self._durable if k <= instance]:
            del self._durable[key]
