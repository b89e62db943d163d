"""Replayable fault schedules: a JSON-serializable fault timeline.

A :class:`Schedule` is a flat, time-ordered list of :class:`ScheduleStep`
records — crash/restart of a named role, partition/heal of a node island,
loss phases, slow-network / slow-disk phases, and elasticity operations
(group remaps, ring splits/merges) handed to the deployment's
reconfiguration manager. It is pure data: the
whole schedule round-trips through JSON, which is what makes a failing
fuzz run a *file* (``repro fuzz --replay failure.json``) rather than a
stack trace.

Every action is one row of :data:`ACTIONS`: the step fields it requires
(a step without them is rejected when it is built, so a bad replay file
fails on load) and the handler :class:`ScheduleRunner` runs when the step
fires. The runner installs each step as one ``sim.at(step.time,
handler, runner, step)`` entry, so steps at the same instant fire in
listed order. Targets are *role names* (``coordinator:0``,
``acceptor:1:0``, ``learner:2``, ``proposer:0``), not object references,
so the same schedule file applies to a freshly rebuilt deployment —
resolution happens when the step fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..errors import ConfigurationError
from ..sim.faults import NetworkPartition
from ..sim.loss import TunableLoss

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.deployment import MultiRingPaxos

__all__ = ["ScheduleStep", "Schedule", "ScheduleRunner", "ACTIONS"]


@dataclass(frozen=True, slots=True)
class ScheduleStep:
    """One fault event on the timeline.

    Fields are action-dependent: ``target`` for crash/restart, ``island``
    for partition (node names), wan_partition (the two region names) and
    ring_merge (the two ring ids, source then destination, as strings),
    ``p`` for loss phases, ``factor`` for slow and wan_jitter phases,
    ``group``/``ring`` for remap (the group and its destination ring) and
    ``ring`` alone for ring_split.
    """

    time: float
    action: str
    target: str | None = None
    island: tuple[str, ...] | None = None
    p: float | None = None
    factor: float | None = None
    group: int | None = None
    ring: int | None = None

    def __post_init__(self) -> None:
        row = ACTIONS.get(self.action)
        if row is None:
            raise ConfigurationError(f"unknown schedule action {self.action!r}")
        if not self.time >= 0:  # written so that NaN is rejected too
            raise ConfigurationError(f"a schedule step needs a time >= 0, not {self.time!r}")
        for name in row[0]:
            if getattr(self, name) is None:
                raise ConfigurationError(f"a {self.action!r} step needs {name!r}")
        if self.action in _PAIR_ACTIONS and len(self.island) != 2:
            raise ConfigurationError(f"a {self.action!r} step needs a two-element island")

    def as_dict(self) -> dict:
        out: dict = {"t": self.time, "action": self.action}
        if self.target is not None:
            out["target"] = self.target
        if self.island is not None:
            out["island"] = list(self.island)
        if self.p is not None:
            out["p"] = self.p
        if self.factor is not None:
            out["factor"] = self.factor
        if self.group is not None:
            out["group"] = self.group
        if self.ring is not None:
            out["ring"] = self.ring
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduleStep":
        island = data.get("island")
        return cls(
            time=float(data["t"]),
            action=data["action"],
            target=data.get("target"),
            island=tuple(island) if island is not None else None,
            p=data.get("p"),
            factor=data.get("factor"),
            group=data.get("group"),
            ring=data.get("ring"),
        )

    def describe(self) -> str:
        detail = self.target or ""
        if self.island is not None:
            detail = "{" + ",".join(self.island) + "}"
        if self.p is not None:
            detail = f"p={self.p:g}"
        if self.factor is not None:
            detail = f"x{self.factor:g}"
        if self.group is not None or self.ring is not None:
            parts = []
            if self.group is not None:
                parts.append(f"group={self.group}")
            if self.ring is not None:
                parts.append(f"ring={self.ring}")
            detail = " ".join(parts)
        return f"t={self.time:g}s {self.action} {detail}".rstrip()


@dataclass(slots=True)
class Schedule:
    """A replayable fault schedule (sorted by step time on construction)."""

    steps: list[ScheduleStep] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Stable sort: steps at identical times keep their listed order,
        # matching the event queue's scheduling-order tie-break.
        self.steps = sorted(self.steps, key=lambda s: s.time)

    def __len__(self) -> int:
        return len(self.steps)

    def without(self, index: int) -> "Schedule":
        """A copy with step ``index`` removed (the shrinker's one move)."""
        return Schedule(self.steps[:index] + self.steps[index + 1:])

    def describe(self) -> str:
        """Readable one-line-per-step summary, time-ordered."""
        return "\n".join(step.describe() for step in self.steps)

    def as_dict(self) -> dict:
        return {"steps": [step.as_dict() for step in self.steps]}

    @classmethod
    def from_dict(cls, data: dict) -> "Schedule":
        return cls([ScheduleStep.from_dict(s) for s in data["steps"]])


class ScheduleRunner:
    """Installs a :class:`Schedule` onto a live deployment's timeline.

    Parameters
    ----------
    mrp:
        The deployment whose roles the step targets name.
    partition / loss:
        The partition object and tunable loss the deployment's network
        was built with (the fuzz driver stacks
        ``NetworkPartition(..., underlying=TunableLoss())``).
    extra_roles:
        Additional crashable roles living above the ordering layer,
        keyed by target name (e.g. ``"replica:0"`` -> a
        :class:`~repro.smr.replica.Replica`). Anything with ``crash`` /
        ``restart`` / ``crashed`` / ``node`` qualifies.

    The runner records every target it *actually* brought back from a
    crash — scheduled restarts and the :meth:`heal_everything` epilogue
    alike — in :attr:`restarted`. The driver's liveness-after-restart
    check reads that set: those are exactly the roles whose recovery
    path ran and must therefore converge.
    """

    def __init__(
        self,
        mrp: "MultiRingPaxos",
        partition: NetworkPartition,
        loss: TunableLoss,
        extra_roles: dict[str, object] | None = None,
    ) -> None:
        self.mrp = mrp
        self.partition = partition
        self.loss = loss
        self.extra_roles: dict[str, object] = dict(extra_roles or {})
        self.restarted: set[str] = set()
        self._base_delay = mrp.network.propagation_delay
        self._base_disk_rates = {
            name: node.disk.drain.rate
            for name, node in mrp.network.nodes.items()
            if node.disk is not None
        }

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, schedule: Schedule) -> "ScheduleRunner":
        """Schedule every step; resolution happens when each step fires."""
        at = self.mrp.sim.at
        for step in schedule.steps:
            at(step.time, ACTIONS[step.action][1], self, step)
        return self

    # ------------------------------------------------------------------
    # Step actions
    # ------------------------------------------------------------------
    def resolve(self, target: str):
        """The live role object a target names, or None if it is gone.

        Targets: ``coordinator:R`` (the ring's *current* coordinator),
        ``acceptor:R:I``, ``learner:I``, ``proposer:I``, plus anything
        in ``extra_roles``. A target that no longer resolves — an
        acceptor index vacated by a reconfiguration — yields None.
        """
        role = self.extra_roles.get(target)
        if role is not None:
            return role
        kind, _, rest = target.partition(":")
        try:
            if kind == "coordinator":
                return self.mrp.rings[int(rest)].coordinator
            if kind == "acceptor":
                ring_s, _, index_s = rest.partition(":")
                return self.mrp.rings[int(ring_s)].acceptors[int(index_s)]
            if kind == "learner":
                return self.mrp.learners[int(rest)]
            if kind == "proposer":
                return self.mrp.proposers[int(rest)]
        except (IndexError, KeyError):
            return None
        raise ConfigurationError(f"unknown schedule target {target!r}")

    def _role_action(self, action: str, target: str) -> None:
        """Crash or restart the role ``target`` names, as of *now*.

        Both operations are idempotent (crashing a crashed process or
        restarting a running one is a no-op), so generated schedules never
        need global coordination. A target that no longer resolves is
        skipped: the schedule stays applicable to whatever the deployment
        has become.
        """
        kind, _, rest = target.partition(":")
        if kind == "coordinator" and target not in self.extra_roles:
            try:
                ring = int(rest)
                handle = self.mrp.rings[ring]
            except (KeyError, ValueError):
                return
            if action == "crash":
                self.mrp.crash_coordinator(ring)
            else:
                if handle.coordinator.crashed:
                    self.restarted.add(target)
                self.mrp.restart_coordinator(ring)
            return
        role = self.resolve(target)
        if role is None:
            return
        if action == "crash":
            role.crash()
            role.node.crash()
        else:
            if role.crashed:
                self.restarted.add(target)
            role.node.restart()
            role.restart()

    def _partition(self, step: ScheduleStep) -> None:
        """Re-cut the partition around the step's island and activate it.

        One partition object models a sequence of different cuts: the
        island is swapped and the cut activated in the same event.
        """
        self.partition.island = set(step.island)
        self.partition.activate()

    def _set_delay(self, factor: float) -> None:
        self.mrp.network.propagation_delay = self._base_delay * factor

    def _scale_disks(self, factor: float) -> None:
        for name, base_rate in self._base_disk_rates.items():
            self.mrp.network.nodes[name].disk.drain.rate = base_rate / factor

    # WAN steps resolve against the network lazily (and no-op on a
    # single-switch fabric), so one schedule file stays applicable to
    # both kinds of deployment — like role targets that no longer exist.
    def _wan(self, method: str, *args: object) -> None:
        fn = getattr(self.mrp.network, method, None)
        if fn is not None:
            fn(*args)

    # Elasticity steps hand operations to the reconfiguration manager,
    # which queues and retries them on its own. Like role targets that no
    # longer resolve, an operation the current configuration rejects — a
    # group already moved away, a ring retired by an earlier merge — is
    # skipped, so a schedule stays applicable to whatever the deployment
    # has become (and to shrunk variants of itself).
    def _reconfig(self, operation: str, *args: int) -> None:
        try:
            getattr(self.mrp.reconfig, operation)(*args)
        except ConfigurationError:
            pass

    # ------------------------------------------------------------------
    # The driver's epilogue
    # ------------------------------------------------------------------
    def heal_everything(self) -> None:
        """Clear every fault as of *now*: the liveness-after-heal baseline.

        Heals the partition, zeroes the loss, restores link and disk
        speeds, and restarts every role and machine. All idempotent — the
        driver calls this unconditionally after the scheduled window, so
        liveness is always checked against a whole network (a schedule
        that never heals must not read as a liveness bug).
        """
        self.partition.heal()
        self.loss.set(0.0)
        self._set_delay(1.0)
        self._scale_disks(1.0)
        self._wan("heal_wan")
        self._wan("set_wan_jitter_scale", 1.0)
        for ring_id, handle in self.mrp.rings.items():
            for i, acceptor in enumerate(handle.acceptors):
                if acceptor.crashed:
                    self.restarted.add(f"acceptor:{ring_id}:{i}")
                acceptor.node.restart()
                acceptor.restart()
            if handle.coordinator.crashed:
                self.restarted.add(f"coordinator:{ring_id}")
            self.mrp.restart_coordinator(ring_id)
        # Extra roles first: a crashed replica must restore its checkpoint
        # (which rolls its learner back while still crashed) before the
        # learner sweep below would revive that learner in place.
        for target, role in self.extra_roles.items():
            if role.crashed:
                self.restarted.add(target)
            role.node.restart()
            role.restart()
        for kind, roles in (("learner", self.mrp.learners), ("proposer", self.mrp.proposers)):
            for i, role in enumerate(roles):
                if role.crashed:
                    self.restarted.add(f"{kind}:{i}")
                role.node.restart()
                role.restart()


# Every action: the step fields it requires, and the handler the runner
# calls with ``(runner, step)`` when the step fires. The ``*_end`` actions
# end the phase their namesake started; the elasticity actions (remap,
# ring_split, ring_merge) each hand one operation to the deployment's
# reconfiguration manager, which drives it to completion (or queues it).
ACTIONS: dict[str, tuple[tuple[str, ...], Callable[[ScheduleRunner, ScheduleStep], None]]] = {
    "crash": (("target",), lambda run, step: run._role_action("crash", step.target)),
    "restart": (("target",), lambda run, step: run._role_action("restart", step.target)),
    "partition": (("island",), ScheduleRunner._partition),
    "heal": ((), lambda run, step: run.partition.heal()),
    "loss": (("p",), lambda run, step: run.loss.set(step.p)),
    "loss_end": ((), lambda run, step: run.loss.set(0.0)),
    "slow_net": (("factor",), lambda run, step: run._set_delay(step.factor)),
    "slow_net_end": ((), lambda run, step: run._set_delay(1.0)),
    "slow_disk": (("factor",), lambda run, step: run._scale_disks(step.factor)),
    "slow_disk_end": ((), lambda run, step: run._scale_disks(1.0)),
    "wan_partition": (("island",), lambda run, step: run._wan("partition_wan", *step.island)),
    "wan_heal": ((), lambda run, step: run._wan("heal_wan")),
    "wan_jitter": (("factor",), lambda run, step: run._wan("set_wan_jitter_scale", step.factor)),
    "wan_jitter_end": ((), lambda run, step: run._wan("set_wan_jitter_scale", 1.0)),
    "remap": (("group", "ring"),
              lambda run, step: run._reconfig("remap_group", step.group, step.ring)),
    "ring_split": (("ring",), lambda run, step: run._reconfig("split_ring", step.ring)),
    "ring_merge": (("island",),
                   lambda run, step: run._reconfig("merge_rings", *map(int, step.island))),
}
# Actions whose island is a pair: two region names (wan_partition) or the
# source and destination ring ids, as strings (ring_merge).
_PAIR_ACTIONS = ("wan_partition", "ring_merge")
