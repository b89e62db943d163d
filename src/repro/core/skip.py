"""The coordinator-side rate monitor and skip proposer (Algorithm 1, Task 2).

Every Δ the coordinator of a ring compares the rate µ at which consensus
instances were produced in the last interval against λ, the maximum
expected rate of any group — a *system parameter*, deliberately not an
adaptive estimate (Section IV-A). If the ring ran below λ, the coordinator
proposes enough skip instances to make up the difference; skips are
batched into one consensus execution (Section IV-D), so their cost is a
single small instance.

After a coordinator outage the first tick observes the full elapsed gap
(ticks do not fire while crashed) and proposes the whole backlog of skips
at once — producing the catch-up spike of Figure 12.

``lambda_rate`` is expressed in instances per second; the skip target for
an interval of length ``elapsed`` is ``prev_k + λ·elapsed``, matching
Algorithm 1 line 16 (``skip <- prev_k + Δλ``). Only whole instances can be
proposed, so :func:`skips_due` carries the fraction to the next interval:
an idle ring then runs at λ, not at a step function of λ·Δ.
"""

from __future__ import annotations

from ..metrics import MetricsRegistry
from ..ringpaxos.coordinator import RingCoordinator
from ..sim.process import PeriodicTimer, Process

__all__ = ["SkipManager", "skips_due"]


def skips_due(owed: float, carry: float) -> tuple[int, float]:
    """The whole instances due for ``owed`` (λ·elapsed) plus the ``carry``
    of earlier intervals, and the fraction carried to the next one."""
    due = owed + carry
    whole = round(due)
    return whole, due - whole


class SkipManager(Process):
    """Periodically tops a ring's instance rate up to λ with skips."""

    def __init__(
        self,
        sim,
        coordinator: RingCoordinator,
        lambda_rate: float,
        delta: float,
        batch_skips: bool = True,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        super().__init__(sim, f"skipmgr/{coordinator.name}")
        if delta <= 0:
            raise ValueError("delta must be positive")
        if lambda_rate < 0:
            raise ValueError("lambda_rate must be non-negative")
        self.coordinator = coordinator
        self.lambda_rate = lambda_rate
        self.delta = delta
        # The paper's optimization (Section IV-D): all of an interval's
        # skips execute as ONE consensus instance. ``batch_skips=False``
        # reverts to Algorithm 1's literal one-propose-per-skip for the
        # ablation benchmark.
        self.batch_skips = batch_skips
        self.prev_k = coordinator.planned_instance
        self.prev_time = sim.now
        self.carry = 0.0  # the fraction of λ·elapsed not yet proposed
        base = metrics if metrics is not None else MetricsRegistry()
        self.metrics = base.child(ring=coordinator.config.ring_id, role="skipmgr")
        self.intervals_sampled = self.metrics.counter("intervals_sampled")
        self.skip_batches = self.metrics.counter("skip_batches")
        self.skips_proposed = self.metrics.counter("skips_proposed")
        # µ, the instance rate observed in the last completed interval.
        self.mu_gauge = self.metrics.gauge("observed_rate")
        self._timer = PeriodicTimer(sim, delta, self._tick)
        if lambda_rate > 0:
            self._timer.start()

    def _tick(self) -> None:
        if self.crashed or self.coordinator.crashed:
            return
        now = self.sim.now
        elapsed = now - self.prev_time
        if elapsed <= 0:
            return
        k = self.coordinator.planned_instance
        self.mu_gauge.value = (k - self.prev_k) / elapsed
        self.intervals_sampled.value += 1
        whole, self.carry = skips_due(self.lambda_rate * elapsed, self.carry)
        target = self.prev_k + whole
        if target > k:
            missing = target - k
            if self.batch_skips:
                self.coordinator.propose_skip(missing)
                self.skip_batches.value += 1
            else:
                for _ in range(missing):
                    self.coordinator.propose_skip(1)
                self.skip_batches.value += missing
            self.skips_proposed.value += missing
        self.prev_k = self.coordinator.planned_instance
        self.prev_time = now

    def follow(self, coordinator: RingCoordinator) -> None:
        """Serve the ring's new coordinator after a takeover.

        The Δ clock restarts now; the rate window (``prev_k``,
        ``prev_time``) is kept, so the first tick covers the entire
        outage, exactly like a restarted coordinator's would. A crashed
        manager — a retired ring's — stays down.
        """
        self.coordinator = coordinator
        if not self.crashed and self.lambda_rate > 0:
            self._timer.start()

    def on_crash(self) -> None:
        self._timer.stop()

    def on_restart(self) -> None:
        # Leave prev_k / prev_time untouched: the first post-restart tick
        # then covers the entire outage, skipping all missed intervals at
        # once — the paper's Figure 12 recovery behaviour.
        if self.lambda_rate > 0:
            self._timer.start()
