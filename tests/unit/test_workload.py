"""Tests for rate schedules and load generators."""

from math import nan

import pytest

from repro.core.admission import AdmissionPolicy
from repro.sim import Simulator
from repro.workload import (
    ClosedLoopGenerator,
    ConstantRate,
    ModulatedRate,
    OpenLoopGenerator,
    ScaledRate,
    SessionMix,
    StepRate,
)


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------
def test_constant_rate():
    r = ConstantRate(100.0)
    assert r.rate_at(0.0) == r.rate_at(999.0) == 100.0
    with pytest.raises(ValueError):
        ConstantRate(-1.0)


def test_step_rate_transitions():
    r = StepRate([(0.0, 10.0), (20.0, 20.0), (40.0, 30.0)])
    assert r.rate_at(5.0) == 10.0
    assert r.rate_at(20.0) == 20.0
    assert r.rate_at(39.9) == 20.0
    assert r.rate_at(100.0) == 30.0


def test_step_rate_before_first_step_is_zero():
    r = StepRate([(10.0, 5.0)])
    assert r.rate_at(0.0) == 0.0


def test_step_rate_validation():
    with pytest.raises(ValueError):
        StepRate([])
    with pytest.raises(ValueError):
        StepRate([(10.0, 1.0), (5.0, 2.0)])
    with pytest.raises(ValueError):
        StepRate([(0.0, -1.0)])


def test_modulated_constant_rate_averages_to_base():
    r = ModulatedRate(ConstantRate(100.0), amplitude=0.5, period=10.0)
    samples = [r.rate_at(t / 10.0) for t in range(1000)]
    assert sum(samples) / len(samples) == pytest.approx(100.0, rel=0.02)
    assert min(samples) >= 0.0
    assert max(samples) <= 150.0 + 1e-9


def test_modulated_constant_rate_validation():
    with pytest.raises(ValueError):
        ModulatedRate(ConstantRate(-1.0))
    with pytest.raises(ValueError):
        ModulatedRate(ConstantRate(1.0), amplitude=2.0)
    with pytest.raises(ValueError):
        ModulatedRate(ConstantRate(1.0), period=0.0)


@pytest.mark.parametrize("build", [
    lambda sim: ConstantRate(nan),
    lambda sim: StepRate([(0.0, nan)]),
    lambda sim: StepRate([(0.0, 1.0), (nan, 2.0)]),
    lambda sim: ModulatedRate(ConstantRate(nan)),
    lambda sim: ScaledRate(ConstantRate(1.0), nan),
    lambda sim: ModulatedRate(ConstantRate(1.0), 0.5, nan),
    lambda sim: SessionMix(zipf_s=nan),
    lambda sim: SessionMix(insert_fraction=nan),
    lambda sim: SessionMix(delete_fraction=nan),
    lambda sim: AdmissionPolicy(nan, 10),
    lambda sim: AdmissionPolicy(10, nan),
    lambda sim: OpenLoopGenerator(sim, lambda: None, ConstantRate(1.0), stop_at=nan),
], ids=[
    "ConstantRate", "StepRate-rate", "StepRate-time", "ModulatedRate-base",
    "ScaledRate", "ModulatedRate-period", "SessionMix-zipf_s",
    "SessionMix-insert", "SessionMix-delete", "AdmissionPolicy-max_inflight",
    "AdmissionPolicy-max_queue", "OpenLoopGenerator-stop_at",
])
def test_workload_constructors_reject_nan(build):
    # NaN fails every ordering test, so `x < 0` guards let it through.
    sim = Simulator()
    with pytest.raises(ValueError):
        build(sim)
    assert sim.pending_events == 0


def test_scaled_rate():
    r = ScaledRate(ConstantRate(100.0), 2.0)
    assert r.rate_at(1.0) == 200.0
    with pytest.raises(ValueError):
        ScaledRate(ConstantRate(1.0), -1.0)


# ---------------------------------------------------------------------------
# OpenLoopGenerator
# ---------------------------------------------------------------------------
def test_open_loop_hits_target_rate():
    sim = Simulator()
    sends = []
    gen = OpenLoopGenerator(sim, lambda: sends.append(sim.now), ConstantRate(100.0))
    gen.start()
    sim.run(until=1.0)
    assert len(sends) == pytest.approx(100, abs=2)


def test_open_loop_follows_steps():
    sim = Simulator()
    sends = []
    schedule = StepRate([(0.0, 10.0), (1.0, 100.0)])
    OpenLoopGenerator(sim, lambda: sends.append(sim.now), schedule).start()
    sim.run(until=2.0)
    first = [t for t in sends if t < 1.0]
    second = [t for t in sends if t >= 1.0]
    # Rate gaps are re-evaluated per send, so the boundary shifts by up to
    # one pre-step gap; assert the 10x shape rather than exact counts.
    assert len(first) == pytest.approx(10, abs=2)
    assert len(second) == pytest.approx(100, abs=15)
    assert len(second) >= 5 * len(first)


def test_open_loop_stop_at():
    sim = Simulator()
    sends = []
    OpenLoopGenerator(
        sim, lambda: sends.append(sim.now), ConstantRate(100.0), stop_at=0.5
    ).start()
    sim.run(until=2.0)
    assert all(t < 0.5 for t in sends)
    assert len(sends) == pytest.approx(50, abs=2)


def test_open_loop_zero_rate_polls_until_nonzero():
    sim = Simulator()
    sends = []
    schedule = StepRate([(0.5, 100.0)])  # silent first half second
    OpenLoopGenerator(sim, lambda: sends.append(sim.now), schedule).start()
    sim.run(until=1.0)
    assert sends and min(sends) >= 0.5
    assert len(sends) == pytest.approx(50, abs=3)


def test_open_loop_manual_stop():
    sim = Simulator()
    sends = []
    gen = OpenLoopGenerator(sim, lambda: sends.append(sim.now), ConstantRate(100.0)).start()
    sim.run(until=0.25)
    gen.stop()
    sim.run(until=1.0)
    assert all(t <= 0.26 for t in sends)


# ---------------------------------------------------------------------------
# ClosedLoopGenerator
# ---------------------------------------------------------------------------
class FakeEnvelope:
    def __init__(self, seq):
        self.seq = seq


def test_closed_loop_fills_window():
    sim = Simulator()
    sent = []

    def send():
        env = FakeEnvelope(len(sent))
        sent.append(env)
        return env

    gen = ClosedLoopGenerator(sim, send, window=4).start()
    sim.run(until=0.1)
    assert len(sent) == 4
    assert gen.outstanding == 4


def test_closed_loop_refills_on_completion():
    sim = Simulator()
    sent = []

    def send():
        env = FakeEnvelope(len(sent))
        sent.append(env)
        return env

    gen = ClosedLoopGenerator(sim, send, window=2).start()
    sim.run(until=0.1)
    gen.notify(0)
    gen.notify(1)
    assert len(sent) == 4
    assert gen.completions.value == 2


def test_closed_loop_ignores_unknown_and_duplicate_completions():
    sim = Simulator()
    sent = []

    def send():
        env = FakeEnvelope(len(sent))
        sent.append(env)
        return env

    gen = ClosedLoopGenerator(sim, send, window=1).start()
    sim.run(until=0.1)
    gen.notify(99)  # never sent
    gen.notify(0)
    gen.notify(0)  # duplicate
    assert gen.completions.value == 1
    assert len(sent) == 2


def test_closed_loop_stop_blocks_refill():
    sim = Simulator()
    sent = []

    def send():
        env = FakeEnvelope(len(sent))
        sent.append(env)
        return env

    gen = ClosedLoopGenerator(sim, send, window=1).start()
    sim.run(until=0.1)
    gen.stop()
    gen.notify(0)
    assert len(sent) == 1


def test_closed_loop_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        ClosedLoopGenerator(sim, lambda: None, window=0)


# ---------------------------------------------------------------------------
# Zero-rate handling: next_change_after and idle backoff
# ---------------------------------------------------------------------------
def test_next_change_after_schedules():
    from repro.workload import ModulatedRate, next_change_after

    assert next_change_after(ConstantRate(10.0), 0.0) is None
    step = StepRate([(0.0, 10.0), (5.0, 0.0), (9.0, 20.0)])
    assert next_change_after(step, 0.0) == 5.0
    assert next_change_after(step, 5.0) == 9.0
    assert next_change_after(step, 9.0) is None
    # Wrappers delegate to what they wrap.
    assert next_change_after(ScaledRate(step, 2.0), 0.0) == 5.0
    assert next_change_after(ModulatedRate(step, amplitude=0.5), 0.0) == 5.0

    class Opaque:
        def rate_at(self, t):
            return 0.0

    assert next_change_after(Opaque(), 0.0) is None


def test_open_loop_trace_unchanged_for_nonzero_schedules():
    # The zero-rate fix must not move a single send of an always-nonzero
    # schedule: gaps are exactly 1/rate re-evaluated per send.
    sim = Simulator()
    sends = []
    schedule = StepRate([(0.0, 8.0), (1.0, 40.0), (2.5, 12.0)])
    OpenLoopGenerator(sim, lambda: sends.append(sim.now), schedule).start()
    sim.run(until=4.0)
    expected, t = [], 0.0
    while t < 4.0:
        expected.append(t)
        t += 1.0 / schedule.rate_at(t)
    assert sends == pytest.approx(expected)


def test_open_loop_sleeps_to_known_transition():
    # A long silent prefix with an announced transition costs one sleep,
    # not one poll per idle_poll interval.
    sim = Simulator()
    sends = []
    calls = [0]
    schedule = StepRate([(50.0, 10.0)])
    real_rate_at = schedule.rate_at

    def counting_rate_at(t):
        calls[0] += 1
        return real_rate_at(t)

    schedule.rate_at = counting_rate_at
    OpenLoopGenerator(sim, lambda: sends.append(sim.now), schedule).start()
    sim.run(until=51.0)
    assert sends and min(sends) >= 50.0
    # ~1 idle evaluation + ~10 live sends; polling would cost ~5000.
    assert calls[0] < 25


def test_open_loop_geometric_backoff_without_transition_info():
    from repro.workload.generator import IDLE_BACKOFF_CAP, IDLE_POLL

    sim = Simulator()

    class MutableRate:
        """Opaque schedule: zero now, nonzero later, no transition info."""

        def __init__(self):
            self.rate = 0.0
            self.calls = 0

        def rate_at(self, t):
            self.calls += 1
            return self.rate

    schedule = MutableRate()
    sends = []
    gen = OpenLoopGenerator(sim, lambda: sends.append(sim.now), schedule)
    gen.start()
    sim.run(until=100.0)
    # Geometric backoff: O(log idle) polls, then capped linear scanning —
    # far fewer than the 10_000 fixed-interval polls of 100s / 10ms.
    assert schedule.calls < 2 + 100.0 / (IDLE_POLL * IDLE_BACKOFF_CAP) + 10
    # The generator is still alive: raising the rate resumes sending
    # within the capped poll interval.
    schedule.rate = 50.0
    sim.run(until=103.0)
    assert sends and min(sends) <= 100.0 + IDLE_POLL * IDLE_BACKOFF_CAP
