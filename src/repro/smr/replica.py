"""Replicas: state machines fed by the atomic multicast layer.

A :class:`Replica` owns one state-machine instance for one partition. It
subscribes (through a :class:`~repro.core.learner.MultiRingLearner`) to
its partition's group and to g_all, executes delivered commands in merge
order, discards range queries that do not intersect its key range, and
unicasts responses back to clients. Execution charges the replica node's
CPU with the state machine's declared cost — when executing requests is
more expensive than ordering them, the replica CPU becomes the bottleneck,
which is the regime partitioning exists to fix (paper, Section I).

With ``checkpoint_interval`` set, the replica snapshots its state machine
every K applied commands, writes the snapshot through its node's disk,
and — once the write acks — acknowledges the covered instances to the
ring members so they can truncate their consensus logs. A restarted
replica reloads the latest durable checkpoint and replays only the
suffix, pulled by its learner's gap repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..calibration import CONTROL_MESSAGE_SIZE, CPU_FIXED_COST_SMALL_MESSAGE
from ..core.deployment import MultiRingPaxos
from ..core.merge import stream_ends
from ..errors import ConfigurationError
from ..metrics import Counter
from ..ringpaxos.messages import CheckpointAck, ClientValue
from ..sim.node import Node
from ..sim.process import Process
from .partitioning import RangePartitioner
from .statemachine import Command, StateMachine

__all__ = ["Response", "Replica"]


@dataclass(frozen=True, slots=True)
class Response:
    """A replica's answer to a client request."""

    req_id: int
    replica: str
    partition: int
    result: Any

    @property
    def size(self) -> int:
        if isinstance(self.result, list):
            return CONTROL_MESSAGE_SIZE + 8 * len(self.result)
        return CONTROL_MESSAGE_SIZE


class Replica(Process):
    """One replica of one partition of the replicated service."""

    def __init__(
        self,
        mrp: MultiRingPaxos,
        partitioner: RangePartitioner,
        partition: int,
        state_machine: StateMachine,
        name: str | None = None,
        respond: bool = True,
        checkpoint_interval: int = 0,
        disk_bandwidth: float | None = None,
    ) -> None:
        if name is None:
            name = f"replica-p{partition}"
        self.mrp = mrp
        self.partitioner = partitioner
        self.partition = partition
        self.state_machine = state_machine
        self.respond = respond
        self.executed = Counter("executed")
        self.discarded = Counter("discarded")
        self.checkpoints_taken = Counter("checkpoints_taken")
        self.restores = Counter("restores")
        self.learner = mrp.add_learner(
            groups=partitioner.groups_for_replica(partition),
            on_deliver=self._on_deliver,
            name=name,
            disk_bandwidth=disk_bandwidth,
        )
        super().__init__(mrp.sim, f"replica@{self.learner.node.name}")
        self.network = mrp.network
        self.checkpoint_interval = checkpoint_interval
        self._applied_total = 0
        self._applied_since_checkpoint = 0
        # Commands delivered but still queued on the CPU. A checkpoint is
        # only consistent when this is zero: the learner's delivery
        # position then matches the state machine's applied prefix.
        self._pending_execs = 0
        self._checkpoint_due = False
        # Bumped on crash: a snapshot disk write still in flight at the
        # crash never becomes the durable checkpoint.
        self._checkpoint_epoch = 0
        self._durable_checkpoint: dict | None = None
        if checkpoint_interval:
            if checkpoint_interval < 0:
                raise ConfigurationError("checkpoint_interval must be >= 0")
            for method in ("snapshot", "restore", "snapshot_bytes"):
                if not hasattr(state_machine, method):
                    raise ConfigurationError(
                        f"checkpointing needs a state machine with {method}()"
                    )
            # The genesis checkpoint: a fresh replica's (empty) state is
            # trivially durable, so a crash before the first snapshot
            # replays the log from the beginning.
            self._durable_checkpoint = self._capture()

    @property
    def node(self) -> Node:
        """The machine this replica runs on."""
        return self.learner.node

    # ------------------------------------------------------------------
    # Delivery -> execution
    # ------------------------------------------------------------------
    def _on_deliver(self, group: int, value: ClientValue) -> None:
        if self.crashed:
            return
        command = value.payload
        if not isinstance(command, Command):
            return
        if command.op == "query" and not self._concerns_me(command):
            # A replica that delivers a query whose range does not fall
            # within its partition simply discards it (Section II-C).
            self.discarded.value += 1
            return
        cost = self.state_machine.execution_cost(command) + CPU_FIXED_COST_SMALL_MESSAGE
        self._pending_execs += 1
        self.node.cpu.execute(cost, self._execute, (command,))

    def _concerns_me(self, command: Command) -> bool:
        kmin, kmax = command.args
        return self.partitioner.intersects(self.partition, kmin, kmax)

    def _execute(self, command: Command) -> None:
        if self.crashed:
            return
        self._pending_execs -= 1
        result = self.state_machine.apply(self._clip(command))
        self.executed.value += 1
        self._applied_total += 1
        probe = self.sim.probe
        if probe is not None and "replica.apply" in probe.subscribers:
            probe.emit(
                "replica.apply", self.sim.now, self.name,
                node=self.node.name, partition=self.partition,
                op=command.op, client=command.client, req_id=command.req_id,
            )
        if self.checkpoint_interval:
            self._applied_since_checkpoint += 1
            if self._applied_since_checkpoint >= self.checkpoint_interval:
                self._applied_since_checkpoint = 0
                self._checkpoint_due = True
            # The learner's delivery position runs ahead of execution (a
            # whole batch is delivered before its first command leaves
            # the CPU queue), so capture only once the pipeline drains —
            # otherwise the snapshot pairs an N-command state machine
            # with an (N+k)-command delivery position, and the k queued
            # commands would be lost on restore.
            if self._checkpoint_due and self._pending_execs == 0:
                self._checkpoint_due = False
                self._take_checkpoint()
        if self.respond and command.client:
            response = Response(command.req_id, self.node.name, self.partition, result)
            self.network.send(
                self.node.name, command.client, "smr.client", response, response.size
            )

    def _clip(self, command: Command) -> Command:
        """Clip a multi-partition range query to this replica's range."""
        if command.op != "query":
            return command
        kmin, kmax = command.args
        lo, hi = self.partitioner.range_of_partition(self.partition)
        return Command(
            "query", (max(kmin, lo), min(kmax, hi - 1)), command.client, command.req_id,
            command.padding,
        )

    # ------------------------------------------------------------------
    # Checkpointing and crash recovery
    # ------------------------------------------------------------------
    def _capture(self) -> dict:
        """A consistent image: state machine + delivery position + count."""
        return {
            "sm": self.state_machine.snapshot(),
            "learner": self.learner.checkpoint_state(),
            "applied": self._applied_total,
        }

    def _take_checkpoint(self) -> None:
        """Snapshot now; the image becomes durable when the write acks.

        The capture is synchronous (the replica checkpoints between
        commands), but durability is paid for: the serialized snapshot
        goes through the node's disk, and only the ack commits it. With
        no disk configured the commit is immediate — an explicitly
        RAM-durable deployment.
        """
        snapshot = self._capture()
        nbytes = CONTROL_MESSAGE_SIZE + int(self.state_machine.snapshot_bytes())
        disk = self.node.disk
        if disk is not None:
            disk.write(nbytes, self._commit_checkpoint, (self._checkpoint_epoch, snapshot))
        else:
            self._commit_checkpoint(self._checkpoint_epoch, snapshot)

    def _commit_checkpoint(self, epoch: int, snapshot: dict) -> None:
        if self.crashed or epoch != self._checkpoint_epoch:
            return  # crashed between the snapshot write and its ack
        self._durable_checkpoint = snapshot
        self.checkpoints_taken.value += 1
        self._send_checkpoint_acks(snapshot)

    def _send_checkpoint_acks(self, snapshot: dict) -> None:
        """Tell every ring member which instances this checkpoint covers.

        All instances below the checkpointed per-ring position are now
        recoverable from this replica's disk; once every replica of the
        deployment says so, acceptors truncate their logs below the
        common watermark.
        """
        for ring_id, position in stream_ends(snapshot["learner"]["merge"]).items():
            config = self.mrp.ring_configs[ring_id]
            ack = CheckpointAck(replica=self.name, ring_id=ring_id, instance=position)
            for member in config.acceptors:
                self.network.send(
                    self.node.name, member, config.repair_port, ack, ack.size
                )

    def on_crash(self) -> None:
        self._checkpoint_epoch += 1
        self._pending_execs = 0
        self._checkpoint_due = False
        self.learner.crash()

    def on_restart(self) -> None:
        """Reload the latest durable checkpoint, then replay the suffix.

        Restore happens while the learner is still crashed — rolling the
        delivery position back sends no traffic — and after the learner
        restart that follows, its gap repair pulls the suffix from the
        checkpointed position.
        Without checkpointing the replica keeps its in-memory state, the
        simulator's default process-restart semantics.
        """
        checkpoint = self._durable_checkpoint
        if checkpoint is None:
            self.learner.restart()
            return
        self.state_machine.restore(checkpoint["sm"])
        self._applied_total = checkpoint["applied"]
        self._applied_since_checkpoint = 0
        self.learner.restore_state(checkpoint["learner"])
        self.restores.value += 1
        probe = self.sim.probe
        if probe is not None and "replica.restore" in probe.subscribers:
            probe.emit(
                "replica.restore", self.sim.now, self.name,
                node=self.node.name, partition=self.partition,
                applied=checkpoint["applied"],
            )
        self.learner.restart()
