"""Replayable fault schedules: a JSON-serializable fault timeline.

A :class:`Schedule` is a flat, time-ordered list of :class:`ScheduleStep`
records — crash/restart of a named role, partition/heal of a node island,
loss phases, slow-network / slow-disk phases, and elasticity operations
(group remaps, ring splits/merges) handed to the deployment's
reconfiguration manager. It is pure data: the
whole schedule round-trips through JSON, which is what makes a failing
fuzz run a *file* (``repro fuzz --replay failure.json``) rather than a
stack trace.

:class:`ScheduleRunner` resolves the step targets against a live
:class:`~repro.core.deployment.MultiRingPaxos` deployment and installs
them on the simulator timeline through a
:class:`~repro.sim.faults.FaultSchedule`. Targets are *role names*
(``coordinator:0``, ``acceptor:1:0``, ``learner:2``, ``proposer:0``), not
object references, so the same schedule file applies to a freshly rebuilt
deployment — resolution happens when the step fires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..sim.faults import FaultSchedule, NetworkPartition
from ..sim.loss import TunableLoss

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.deployment import MultiRingPaxos

__all__ = ["ScheduleStep", "Schedule", "ScheduleRunner", "ACTIONS"]

# Paired phase actions: the second member ends what the first started.
# The elasticity actions (remap, ring_split, ring_merge) are unpaired:
# each hands one operation to the deployment's reconfiguration manager,
# which drives it to completion (or queues it) on its own.
ACTIONS = (
    "crash", "restart",
    "partition", "heal",
    "loss", "loss_end",
    "slow_net", "slow_net_end",
    "slow_disk", "slow_disk_end",
    "wan_partition", "wan_heal",
    "wan_jitter", "wan_jitter_end",
    "remap", "ring_split", "ring_merge",
)


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
        if self.action not in ACTIONS:
            raise ConfigurationError(f"unknown schedule action {self.action!r}")
        if self.time < 0:
            raise ConfigurationError("schedule steps cannot be scheduled in the past")

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
        self.faults = FaultSchedule(mrp.sim)
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
        for step in schedule.steps:
            self._install_step(step)
        return self

    def _install_step(self, step: ScheduleStep) -> None:
        t, action = step.time, step.action
        if action in ("crash", "restart"):
            assert step.target is not None
            self.faults.act_at(t, f"{action} {step.target}", self._role_action, action, step.target)
        elif action == "partition":
            assert step.island is not None
            self.faults.repartition_at(t, self.partition, step.island)
        elif action == "heal":
            self.faults.heal_at(t, self.partition)
        elif action == "loss":
            assert step.p is not None
            self.faults.set_loss_at(t, self.loss, step.p)
        elif action == "loss_end":
            self.faults.set_loss_at(t, self.loss, 0.0)
        elif action == "slow_net":
            assert step.factor is not None
            self.faults.act_at(t, f"slow_net x{step.factor:g}", self._set_delay, step.factor)
        elif action == "slow_net_end":
            self.faults.act_at(t, "slow_net_end", self._set_delay, 1.0)
        elif action == "slow_disk":
            assert step.factor is not None
            self.faults.act_at(t, f"slow_disk /{step.factor:g}", self._scale_disks, step.factor)
        elif action == "slow_disk_end":
            self.faults.act_at(t, "slow_disk_end", self._scale_disks, 1.0)
        elif action == "wan_partition":
            assert step.island is not None and len(step.island) == 2
            a, b = step.island
            self.faults.act_at(t, f"wan_partition {a}|{b}", self._wan_partition, a, b)
        elif action == "wan_heal":
            self.faults.act_at(t, "wan_heal", self._wan_heal)
        elif action == "wan_jitter":
            assert step.factor is not None
            self.faults.act_at(t, f"wan_jitter x{step.factor:g}", self._wan_jitter, step.factor)
        elif action == "wan_jitter_end":
            self.faults.act_at(t, "wan_jitter_end", self._wan_jitter, 1.0)
        elif action == "remap":
            assert step.group is not None and step.ring is not None
            self.faults.act_at(t, f"remap group {step.group} -> ring {step.ring}",
                               self._remap, step.group, step.ring)
        elif action == "ring_split":
            assert step.ring is not None
            self.faults.act_at(t, f"ring_split {step.ring}", self._ring_split, step.ring)
        elif action == "ring_merge":
            assert step.island is not None and len(step.island) == 2
            src, dst = step.island
            self.faults.act_at(t, f"ring_merge {src} -> {dst}",
                               self._ring_merge, int(src), int(dst))

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

    def _set_delay(self, factor: float) -> None:
        self.mrp.network.propagation_delay = self._base_delay * factor

    # WAN steps resolve against the network lazily (and no-op on a
    # single-switch fabric), so one schedule file stays applicable to
    # both kinds of deployment — like role targets that no longer exist.
    def _wan_partition(self, a: str, b: str) -> None:
        network = self.mrp.network
        if hasattr(network, "partition_wan"):
            network.partition_wan(a, b)

    def _wan_heal(self) -> None:
        network = self.mrp.network
        if hasattr(network, "heal_wan"):
            network.heal_wan()

    def _wan_jitter(self, factor: float) -> None:
        network = self.mrp.network
        if hasattr(network, "set_wan_jitter_scale"):
            network.set_wan_jitter_scale(factor)

    def _scale_disks(self, factor: float) -> None:
        for name, base_rate in self._base_disk_rates.items():
            self.mrp.network.nodes[name].disk.drain.rate = base_rate / factor

    # Elasticity steps hand operations to the reconfiguration manager,
    # which queues and retries them on its own. Like role targets that no
    # longer resolve, an operation the current configuration rejects — a
    # group already moved away, a ring retired by an earlier merge — is
    # skipped, so a schedule stays applicable to whatever the deployment
    # has become (and to shrunk variants of itself).
    def _remap(self, group: int, ring: int) -> None:
        try:
            self.mrp.reconfig.remap_group(group, ring)
        except ConfigurationError:
            pass

    def _ring_split(self, ring: int) -> None:
        try:
            self.mrp.reconfig.split_ring(ring)
        except ConfigurationError:
            pass

    def _ring_merge(self, source: int, target: int) -> None:
        try:
            self.mrp.reconfig.merge_rings(source, target)
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
        self._wan_heal()
        self._wan_jitter(1.0)
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
