"""Load generators: open-loop and closed-loop clients.

Open-loop generators submit at a target offered rate regardless of how the
system keeps up — the right model for the latency-vs-throughput curves and
the λ time-series experiments. Closed-loop generators keep a window of
outstanding messages and only send when deliveries complete — the model
behind Figure 12's observation that a stalled learner throttles the
proposer that multicasts to its ring.
"""

from __future__ import annotations

from typing import Any, Callable

from ..metrics import Counter
from ..sim.process import Process
from ..sim.simulator import Simulator
from .rates import RateSchedule, next_change_after

# While idle with no known transition ahead, poll intervals start at
# IDLE_POLL seconds and double up to IDLE_BACKOFF_CAP times it — bounded
# staleness for schedules that cannot announce their next change (e.g. a
# custom mutable schedule).
IDLE_POLL = 10e-3
IDLE_BACKOFF_CAP = 128

__all__ = ["OpenLoopGenerator", "ClosedLoopGenerator", "ThrottledGenerator"]

SendFn = Callable[[], Any]


class OpenLoopGenerator(Process):
    """Calls ``send_fn`` at the schedule's offered rate.

    Inter-send gaps are deterministic (1/rate) re-evaluated at every send,
    so step and oscillating schedules take effect immediately. When the
    schedule reports a zero rate the generator asks the schedule for its
    next transition (``rates.next_change_after``) and sleeps until exactly
    then; schedules without a known transition are polled with geometric
    backoff from ``IDLE_POLL`` (capped at ``IDLE_BACKOFF_CAP`` times it),
    so idle phases cost O(log idle) kernel events instead of one per
    ``IDLE_POLL``.
    """

    def __init__(
        self,
        sim: Simulator,
        send_fn: SendFn,
        schedule: RateSchedule,
        stop_at: float | None = None,
        jitter: float = 0.0,
        burst: int = 1,
        name: str = "openloop",
    ) -> None:
        super().__init__(sim, name)
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if burst < 1:
            raise ValueError("burst must be at least 1")
        if stop_at is not None and not stop_at >= 0:  # rejects NaN too
            raise ValueError("stop_at must be non-negative")
        self.send_fn = send_fn
        self.schedule = schedule
        self.stop_at = stop_at
        self.jitter = jitter
        self.burst = burst
        self.sends = Counter("sends")
        self._rng = sim.random.get(f"workload.{name}")
        self._running = False
        self._idle_backoff = 0.0

    def start(self, delay: float = 0.0) -> "OpenLoopGenerator":
        """Begin generating ``delay`` seconds from now; returns self."""
        self._running = True
        # Ticks self-check ``_running``/``crashed``, so they skip
        # call_later's crash-guard wrapper. One tick per generated value
        # makes this one of the hottest schedule sites.
        self.sim.schedule(delay, self._tick)
        return self

    def stop(self) -> None:
        """Stop generating (pending tick becomes a no-op)."""
        self._running = False

    def _tick(self) -> None:
        if not self._running or self.crashed:
            return
        now = self.sim.now
        if self.stop_at is not None and now >= self.stop_at:
            self._running = False
            return
        rate = self.schedule.rate_at(now)
        if rate <= 0:
            self.sim.schedule(self._idle_delay(now), self._tick)
            return
        self._idle_backoff = 0.0
        # ``burst`` > 1 models clients that submit in clumps (the offered
        # rate is unchanged; the gap scales with the burst size). Bursty
        # arrivals are what make the skip interval Delta observable.
        for _ in range(self.burst):
            self.send_fn()
            self.sends.value += 1
        gap = self.burst / rate
        if self.jitter:
            # Uniform multiplicative jitter: mean-preserving, so the
            # offered rate is unchanged but instance production across
            # independent generators drifts apart like a random walk —
            # the out-of-sync effect of the paper's Figure 9 at lambda=0.
            gap *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        self.sim.schedule(gap, self._tick)

    def _idle_delay(self, now: float) -> float:
        """How long to sleep while the schedule reports a zero rate."""
        wake = next_change_after(self.schedule, now)
        if wake is not None and wake > now:
            self._idle_backoff = 0.0
            return wake - now
        # No announced transition: geometric backoff from IDLE_POLL.
        delay = self._idle_backoff or IDLE_POLL
        self._idle_backoff = min(delay * 2.0, IDLE_POLL * IDLE_BACKOFF_CAP)
        return delay


class ClosedLoopGenerator(Process):
    """Keeps ``window`` messages outstanding; sends on completion.

    ``send_fn`` must return an object with a ``seq`` attribute (e.g. a
    :class:`~repro.ringpaxos.messages.ClientValue`); the harness calls
    :meth:`notify` when such a message is delivered, which releases the
    next send. A stalled consumer therefore throttles this generator —
    the Figure 12 sending-rate dip.
    """

    def __init__(
        self,
        sim: Simulator,
        send_fn: Callable[[], Any],
        window: int = 16,
        name: str = "closedloop",
    ) -> None:
        super().__init__(sim, name)
        if window < 1:
            raise ValueError("window must be at least 1")
        self.send_fn = send_fn
        self.window = window
        self.sends = Counter("sends")
        self.completions = Counter("completions")
        self._outstanding: set[int] = set()
        self._running = False

    def start(self, delay: float = 0.0) -> "ClosedLoopGenerator":
        """Fill the window ``delay`` seconds from now; returns self."""
        self._running = True
        self.call_later(delay, self._fill)
        return self

    def stop(self) -> None:
        """Stop issuing new sends (outstanding ones may still complete)."""
        self._running = False

    @property
    def outstanding(self) -> int:
        """Messages sent but not yet completed."""
        return len(self._outstanding)

    def notify(self, seq: int) -> None:
        """Mark the message with ``seq`` as delivered; refills the window."""
        if seq in self._outstanding:
            self._outstanding.discard(seq)
            self.completions.value += 1
            self._fill()

    def _fill(self) -> None:
        if not self._running or self.crashed:
            return
        while len(self._outstanding) < self.window:
            envelope = self.send_fn()
            self.sends.value += 1
            self._outstanding.add(envelope.seq)


class ThrottledGenerator(Process):
    """A rate pacer with an outstanding-message cap.

    Sends at most ``rate`` messages per second *and* at most
    ``max_outstanding`` undelivered messages. While the consumer keeps up,
    this behaves like an open-loop source at ``rate``; when deliveries
    stall (e.g. the learner's merge is blocked by a dead ring), sending
    pauses — the throttling visible in the paper's Figure 12, where the
    un-acknowledged ring-2 proposer slows down during ring-1's outage.
    """

    def __init__(
        self,
        sim: Simulator,
        send_fn: Callable[[], Any],
        rate: float,
        max_outstanding: int = 64,
        name: str = "throttled",
    ) -> None:
        super().__init__(sim, name)
        if rate <= 0:
            raise ValueError("rate must be positive")
        if max_outstanding < 1:
            raise ValueError("max_outstanding must be at least 1")
        self.send_fn = send_fn
        self.rate = rate
        self.max_outstanding = max_outstanding
        self.sends = Counter("sends")
        self.completions = Counter("completions")
        self._outstanding: set[int] = set()
        self._running = False
        self._paused = False

    def start(self, delay: float = 0.0) -> "ThrottledGenerator":
        """Begin pacing ``delay`` seconds from now; returns self."""
        self._running = True
        self.call_later(delay, self._tick)
        return self

    def stop(self) -> None:
        """Stop sending."""
        self._running = False

    @property
    def outstanding(self) -> int:
        """Messages sent but not yet completed."""
        return len(self._outstanding)

    def notify(self, seq: int) -> None:
        """Mark a message delivered; resumes pacing if it was paused."""
        if seq in self._outstanding:
            self._outstanding.discard(seq)
            self.completions.value += 1
            if self._paused and len(self._outstanding) < self.max_outstanding:
                self._paused = False
                self._tick()

    def _tick(self) -> None:
        if not self._running or self.crashed:
            return
        if len(self._outstanding) >= self.max_outstanding:
            # Window full: wait for a completion to resume.
            self._paused = True
            return
        envelope = self.send_fn()
        self.sends.value += 1
        self._outstanding.add(envelope.seq)
        self.call_later(1.0 / self.rate, self._tick)
