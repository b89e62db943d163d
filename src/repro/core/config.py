"""Deployment-level configuration for Multi-Ring Paxos.

Defaults follow the paper's experimental setup (Section VI-A): 2 in-ring
acceptors per ring, 8 KB batches, λ = 9000 consensus instances per second,
Δ = 1 ms, M = 1, one dedicated ring per group.

On λ's unit: the paper's setup text says "9000 consensus instances per
interval", but Algorithm 1 line 16 uses ``Δ·λ`` as the per-interval target
and Section VI-E's arithmetic (12000 skipped instances ≈ 750 Mbps of 8 KB
instances *per second*) both fix λ as a rate per second. We follow the
algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..calibration import BATCH_SIZE_BYTES, BATCH_TIMEOUT_S
from ..errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.topology import Topology

__all__ = ["MultiRingConfig"]


@dataclass(slots=True)
class MultiRingConfig:
    """Knobs of a Multi-Ring Paxos deployment.

    Parameters
    ----------
    n_groups:
        Number of multicast groups (γ in Algorithm 1).
    n_rings:
        Number of Ring Paxos instances; defaults to one per group.
        With fewer rings than groups, groups are assigned round-robin
        (``group_id % n_rings``) — the γ > δ mapping of Section IV-D.
    acceptors_per_ring:
        In-ring acceptors (f + 1); the coordinator is one of them.
    durable:
        False = In-memory Multi-Ring Paxos (RAM M-RP), True = Recoverable
        (DISK M-RP, acceptors write through their disks).
    lambda_rate:
        λ, maximum expected consensus instances per second of any group.
        0 disables the skip mechanism entirely (Figure 9's λ = 0 case).
    delta:
        Δ, the coordinator's sampling interval in seconds.
    m:
        M, consecutive consensus instances a learner consumes per group.
    buffer_limit:
        Learner merge-buffer capacity in logical instances; overflowing it
        halts the learner (Figure 10).
    topology:
        A :class:`~repro.sim.topology.Topology` for multi-datacenter
        deployments; None (the default) keeps the single-switch fabric.
    group_regions:
        Region per group — where that group's subscribers (learners,
        replicas, proposers) live. Drives latency-aware ring placement;
        defaults to every group in the topology's first region.
    ring_regions:
        Explicit region per ring, overriding latency-aware placement
        (used to force deliberately bad layouts in experiments).
    """

    n_groups: int = 1
    n_rings: int | None = None
    acceptors_per_ring: int = 2
    durable: bool = False
    lambda_rate: float = 9000.0
    delta: float = 1e-3
    m: int = 1
    buffer_limit: int = 200_000
    batch_size: int = BATCH_SIZE_BYTES
    batch_timeout: float = BATCH_TIMEOUT_S
    window: int = 32
    seed: int = 0
    series_bucket: float = 1.0
    spares_per_ring: int = 0
    auto_failover: bool = False
    suspect_timeout: float = 0.05
    topology: "Topology | None" = None
    group_regions: list[str] | None = None
    ring_regions: list[str] | None = None

    def __post_init__(self) -> None:
        if self.n_groups < 1:
            raise ConfigurationError("need at least one group")
        if self.n_rings is None:
            self.n_rings = self.n_groups
        if not 1 <= self.n_rings <= self.n_groups:
            raise ConfigurationError("n_rings must be in [1, n_groups]")
        if self.acceptors_per_ring < 1:
            raise ConfigurationError("need at least one acceptor per ring")
        # Each guard is written so that NaN is rejected too: a bad value
        # raises here, before a deployment attaches its first node.
        if not self.lambda_rate >= 0 or not self.delta > 0 or self.m < 1:
            raise ConfigurationError("invalid lambda/delta/M")
        if self.spares_per_ring < 0 or not self.suspect_timeout > 0:
            raise ConfigurationError("invalid spares/suspect_timeout")
        if not self.batch_size > 0 or not self.batch_timeout >= 0 or not self.window > 0:
            raise ConfigurationError("invalid batch_size/batch_timeout/window")
        if not self.buffer_limit >= 0 or not self.series_bucket > 0:
            raise ConfigurationError("invalid buffer_limit/series_bucket")
        if self.auto_failover and self.acceptors_per_ring < 2:
            raise ConfigurationError("failover needs a surviving acceptor per ring")
        if self.topology is None:
            if self.group_regions is not None or self.ring_regions is not None:
                raise ConfigurationError("regions require a topology")
        else:
            if self.group_regions is not None and len(self.group_regions) != self.n_groups:
                raise ConfigurationError(
                    "group_regions must name one region per group "
                    f"({len(self.group_regions)} regions for {self.n_groups} groups)"
                )
            if self.ring_regions is not None and len(self.ring_regions) != self.n_rings:
                raise ConfigurationError(
                    "ring_regions must name one region per ring "
                    f"({len(self.ring_regions)} regions for {self.n_rings} rings)"
                )

    def ring_of_group(self, group_id: int) -> int:
        """The ring ordering messages of ``group_id``."""
        if not 0 <= group_id < self.n_groups:
            raise ConfigurationError(f"unknown group {group_id}")
        assert self.n_rings is not None
        return group_id % self.n_rings

    def region_of_group(self, group_id: int) -> str | None:
        """The subscriber region of ``group_id`` (None without a topology)."""
        if self.topology is None:
            return None
        if not 0 <= group_id < self.n_groups:
            raise ConfigurationError(f"unknown group {group_id}")
        if self.group_regions is None:
            return self.topology.default_region
        return self.group_regions[group_id]
