"""Clients of the partitioned replicated service.

A client multicasts commands to the right group — derived from the key or
range by the partitioner — and completes a request when the *first*
response arrives (single-partition requests) or when every concerned
partition has answered (multi-partition range queries, whose results are
the union of the partitions' answers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.deployment import MultiRingPaxos
from ..core.proposer import MultiRingProposer
from ..metrics import Counter, LatencyHistogram
from ..sim.process import Process
from .partitioning import RangePartitioner
from .replica import Response
from .statemachine import Command

__all__ = ["SmrClient"]


@dataclass(slots=True)
class _PendingRequest:
    issued_at: float
    awaiting: int
    results: list[Any] = field(default_factory=list)
    responded_partitions: set[int] = field(default_factory=set)
    callback: Callable[[Any], None] | None = None
    is_query: bool = False


class SmrClient(Process):
    """Issues insert/delete/query requests against the replicated store."""

    def __init__(
        self,
        mrp: MultiRingPaxos,
        partitioner: RangePartitioner,
        replicas_per_partition: int = 1,
    ) -> None:
        self.mrp = mrp
        self.partitioner = partitioner
        self.replicas_per_partition = replicas_per_partition
        self.proposer: MultiRingProposer = mrp.add_proposer()
        super().__init__(mrp.sim, f"smrclient@{self.proposer.node.name}")
        self.network = mrp.network
        self.requests = Counter("requests")
        self.completions = Counter("completions")
        self.request_latency = LatencyHistogram("request_latency")
        self._next_req = 0
        self._pending: dict[int, _PendingRequest] = {}
        self.proposer.node.register("smr.client", self._on_response)

    # ------------------------------------------------------------------
    # Request API
    # ------------------------------------------------------------------
    def insert(self, key: int, on_done: Callable[[Any], None] | None = None) -> int:
        """Insert ``key``; returns the request id."""
        group = self.partitioner.group_of_key(key)
        return self._issue("insert", (key,), group, awaiting=1, on_done=on_done)

    def delete(self, key: int, on_done: Callable[[Any], None] | None = None) -> int:
        """Delete ``key``; returns the request id."""
        group = self.partitioner.group_of_key(key)
        return self._issue("delete", (key,), group, awaiting=1, on_done=on_done)

    def query(
        self, kmin: int, kmax: int, on_done: Callable[[list[int]], None] | None = None
    ) -> int:
        """Range query; single- or multi-partition depending on the range."""
        group = self.partitioner.group_of_range(kmin, kmax)
        if group == self.partitioner.all_group:
            concerned = sum(
                1
                for p in range(self.partitioner.n_partitions)
                if self.partitioner.intersects(p, kmin, kmax)
            )
        else:
            concerned = 1
        return self._issue(
            "query", (kmin, kmax), group, awaiting=concerned, on_done=on_done, is_query=True
        )

    @property
    def outstanding(self) -> int:
        """Requests issued but not yet completed."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _issue(
        self,
        op: str,
        args: tuple,
        group: int,
        awaiting: int,
        on_done: Callable[[Any], None] | None,
        is_query: bool = False,
    ) -> int:
        req_id = self._next_req
        self._next_req += 1
        command = Command(
            op=op,
            args=args,
            client=self.proposer.node.name,
            req_id=req_id,
        )
        self._pending[req_id] = _PendingRequest(
            issued_at=self.sim.now, awaiting=awaiting, callback=on_done, is_query=is_query
        )
        self.requests.value += 1
        self.proposer.multicast(group, command, command.size)
        return req_id

    def _on_response(self, src: str, msg) -> None:
        if self.crashed or not isinstance(msg, Response):
            return
        pending = self._pending.get(msg.req_id)
        if pending is None:
            return  # late duplicate of a completed request
        if msg.partition in pending.responded_partitions:
            return  # another replica of an already-counted partition
        pending.responded_partitions.add(msg.partition)
        pending.results.append(msg.result)
        pending.awaiting -= 1
        if pending.awaiting > 0:
            return
        del self._pending[msg.req_id]
        self.completions.value += 1
        self.request_latency.record(max(0.0, self.sim.now - pending.issued_at))
        if pending.callback is not None:
            if pending.is_query:
                merged: list[int] = []
                for part in pending.results:
                    if isinstance(part, list):
                        merged.extend(part)
                pending.callback(sorted(merged))
            else:
                pending.callback(pending.results[0])
