"""Atomic-multicast groups and the group -> ring mapping.

Multi-Ring Paxos implements the abstraction of groups Γ = {g1..gγ}
(paper, Section II-B): messages are multicast to exactly one group, and
processes subscribe to any subset. Group identifiers are unique and
totally ordered — that order is what makes the deterministic merge
deterministic across learners.

The default deployment assigns one ring per group; mapping several groups
onto one ring is supported (Section IV-D) at the cost of learners
receiving — and discarding — traffic of groups they do not subscribe to.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError

__all__ = ["Group", "GroupRegistry"]


@dataclass(frozen=True, slots=True)
class Group:
    """One multicast group, bound to the ring that orders its messages."""

    group_id: int
    ring_id: int


class GroupRegistry:
    """The deployment's group table."""

    def __init__(self) -> None:
        self._groups: dict[int, Group] = {}

    def add(self, group_id: int, ring_id: int) -> Group:
        """Register a group ordered by ``ring_id``."""
        if group_id in self._groups:
            raise ConfigurationError(f"group {group_id} already registered")
        group = Group(group_id, ring_id)
        self._groups[group_id] = group
        return group

    def __contains__(self, group_id: int) -> bool:
        return group_id in self._groups

    def __len__(self) -> int:
        return len(self._groups)

    def get(self, group_id: int) -> Group:
        """The :class:`Group` for ``group_id``."""
        try:
            return self._groups[group_id]
        except KeyError:
            raise ConfigurationError(f"unknown group {group_id}") from None

    def ring_for(self, group_id: int) -> int:
        """Ring ordering messages of ``group_id``."""
        return self.get(group_id).ring_id

    def remap(self, group_id: int, ring_id: int, known_rings=None) -> Group:
        """Re-bind ``group_id`` to ``ring_id`` (the elasticity primitive).

        The table only changes the binding; the drain/handoff protocol
        that makes a live remap safe lives in
        :class:`~repro.core.reconfig.ReconfigManager`. Idempotent: a
        remap onto the current ring returns the existing binding
        unchanged. With ``known_rings`` supplied, a destination outside
        it is rejected — the deployment passes its live ring ids so a
        group can never be remapped onto a ring that does not exist.
        """
        current = self.get(group_id)
        if known_rings is not None and ring_id not in known_rings:
            raise ConfigurationError(
                f"cannot remap group {group_id} to unknown ring {ring_id}"
            )
        if current.ring_id == ring_id:
            return current
        group = Group(group_id, ring_id)
        self._groups[group_id] = group
        return group

    def group_ids(self) -> list[int]:
        """All group ids, ascending (the canonical total order)."""
        return sorted(self._groups)

    def rings_for(self, group_ids: list[int]) -> list[int]:
        """Rings to subscribe for ``group_ids``, ascending: the visit order
        of the deterministic merge, the same for every learner."""
        return sorted({self.ring_for(gid) for gid in group_ids})

    def groups_on_ring(self, ring_id: int) -> list[int]:
        """Group ids mapped onto ``ring_id``, ascending."""
        return sorted(g.group_id for g in self._groups.values() if g.ring_id == ring_id)
