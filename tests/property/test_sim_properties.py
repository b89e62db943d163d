"""Property-based tests for simulation-kernel invariants."""

from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.metrics import BucketSeries, LatencyHistogram
from repro.obs import SimProfiler
from repro.sim import FifoServer, GeoNetwork, Node, PeriodicTimer, Simulator, Timer, Topology


@given(times=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_events_fire_in_nondecreasing_time_order(times):
    sim = Simulator()
    fired = []
    for t in times:
        sim.at(t, fired.append, t)
    sim.run()
    assert fired == sorted(times)
    assert sim.events_executed == len(times)


_DELAYS = [0.0, 1e-7, 5e-7, 3e-6, 5e-5, 2e-3, 0.04, 0.2, 5.0]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_firing_order_matches_sorted_reference(data):
    """Interleaved pushes and single steps fire in the exact (time, seq) order.

    For any schedule the kernel must be indistinguishable from a sorted
    list of (time, seq) keys — a list, not a heap, so that the oracle is
    not the implementation. Entries are queued with ``post_reserved`` at
    a seq drawn on the spot or some pushes earlier; the next property
    holds ``schedule`` and ``at`` to the same order.
    """
    sim = Simulator()
    ref = []  # (time, seq) of every pending entry
    fired = []
    held = []  # seqs reserved but not queued yet

    def step_and_compare():
        ref.sort()
        sim.run(max_events=1)
        assert fired[-1] == ref.pop(0)
        assert sim.now == fired[-1][0]

    for _ in range(data.draw(st.integers(10, 200))):
        action = data.draw(st.integers(0, 4))
        if ref and action <= 1:
            step_and_compare()
        elif action == 2:
            held.append(sim.reserve_seq())
        else:
            delay = data.draw(st.sampled_from(_DELAYS))
            key = (sim.now + delay, held.pop(0) if held and action == 3 else sim.reserve_seq())
            sim.post_reserved(*key, fired.append, (key,))
            ref.append(key)
        assert sim.pending_events == len(ref)
    while ref:
        step_and_compare()
    assert sim.pending_events == 0 and sim.events_executed == len(fired)


@given(
    entries=st.lists(st.tuples(st.sampled_from(_DELAYS), st.booleans()), min_size=1, max_size=100)
)
@settings(max_examples=100, deadline=None)
def test_schedule_and_at_draw_their_seq_where_they_are_called(entries):
    """``schedule`` and ``at`` are ``post_reserved`` at a seq drawn on the
    spot: ties fire in call order, whichever entry point queued them."""
    sim = Simulator()
    fired = []
    for i, (delay, use_at) in enumerate(entries):
        if use_at:
            sim.at(sim.now + delay, fired.append, (delay, i))
        else:
            sim.schedule(delay, fired.append, (delay, i))
    sim.run()
    assert fired == sorted((delay, i) for i, (delay, _) in enumerate(entries))


@given(
    demands=st.lists(st.floats(0.001, 10.0, allow_nan=False), min_size=1, max_size=100),
    rate=st.floats(0.1, 100.0),
)
@settings(max_examples=100, deadline=None)
def test_fifo_server_conservation(demands, rate):
    """Total busy time == total demand / rate; completions are FIFO."""
    sim = Simulator()
    srv = FifoServer(sim, rate=rate)
    finishes = [srv.submit(d) for d in demands]
    assert finishes == sorted(finishes)
    assert srv.total_busy_time * rate == sum(demands) or abs(
        srv.total_busy_time - sum(demands) / rate
    ) < 1e-6 * max(1.0, sum(demands) / rate)
    # Utilization can never exceed 1: not mid-backlog, not once drained.
    horizon = max(finishes)
    for t in (horizon / 3, horizon):
        sim.run(until=t)
        assert srv.busy_time() <= t + 1e-9


@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 3),  # which server
            st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0]),  # demand: ties are common
            st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0]),  # gap before the submission
        ),
        min_size=1,
        max_size=80,
    ),
    rates=st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=4, max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_completions_of_several_servers_fire_in_finish_then_submission_order(ops, rates):
    """Completions are indistinguishable from a sorted list of
    (finish time, submission index), whichever servers they came from."""
    sim = Simulator()
    servers = [FifoServer(sim, rate=rate) for rate in rates]
    expected = []  # (finish, submission index)
    fired = []  # (clock at the callback, submission index)

    def submit(k, demand):
        index = len(expected)
        finish = servers[k].submit(demand, lambda: fired.append((sim.now, index)))
        expected.append((finish, index))

    t = 0.0
    for k, demand, gap in ops:
        t += gap
        sim.at(t, submit, k, demand)  # submitted mid-run, between completions
    sim.run()
    assert fired == sorted(expected)
    assert sim.events_executed == 2 * len(ops)
    assert sim.pending_events == 0


_BUSY_PROGRAMS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.sampled_from([0.0, 0.25, 1.0, 1.0, 4.0])),
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0, 20.0])),
        # check/schedule.py slows and restores disk.drain.rate mid-run.
        st.tuples(st.just("rate"), st.sampled_from([0.25, 1.0, 2.0])),
    ),
    min_size=1,
    max_size=60,
)


def _busy_readings_differ(program, reading):
    """Run ``program``, taking ``reading(server)`` after every step; True
    when one differs from the union of the accepted jobs' intervals
    clipped at the clock."""
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0)
    intervals = []  # reference: every job's own (start, finish)
    free_at = 0.0
    for op, value in program:
        if op == "submit":
            start = max(sim.now, free_at)
            free_at = start + value / srv.rate
            intervals.append((start, free_at))
            assert srv.submit(value) == free_at
        elif op == "advance":
            sim.run(until=sim.now + value)
        else:
            srv.rate = value
        expected = sum(max(0.0, min(hi, sim.now) - lo) for lo, hi in intervals)
        if abs(reading(srv) - expected) > 1e-9 * max(1.0, expected):
            return True
    return False


@given(program=_BUSY_PROGRAMS)
@settings(max_examples=300, deadline=None)
def test_busy_time_is_the_union_of_job_intervals_clipped_at_now(program):
    """Mid-job, idle, behind a backlog, across a rate change."""
    assert not _busy_readings_differ(program, FifoServer.busy_time)


def test_busy_time_property_rejects_a_reading_that_counts_the_backlog():
    """The property has teeth: ``total_busy_time`` alone fails it."""
    program = find(
        _BUSY_PROGRAMS,
        lambda p: _busy_readings_differ(p, lambda srv: srv.total_busy_time),
        settings=settings(max_examples=2000, derandomize=True, deadline=None),
    )
    assert not _busy_readings_differ(program, FifoServer.busy_time)


@given(
    demands=st.lists(st.floats(0.001, 5.0, allow_nan=False), min_size=1, max_size=50),
    gaps=st.lists(st.floats(0.0, 5.0, allow_nan=False), min_size=1, max_size=50),
    cut=st.floats(0.0, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_profiler_busy_windows_are_additive(demands, gaps, cut):
    """busy(a,c) == busy(a,b) + busy(b,c) for any split point, and the
    whole history adds up to the server's own counter."""
    sim = Simulator()
    srv = FifoServer(sim, rate=1.0)
    profiler = SimProfiler(sim)
    profiler.track("srv", srv)
    t = 0.0
    for demand, gap in zip(demands, gaps):
        sim.run(until=t)
        srv.submit(demand)
        t += gap
    sim.run(until=srv.busy_until + 1.0)
    history = profiler._history[srv.name]
    end = sim.now
    mid = end * cut
    total = history.between(0.0, end)
    assert abs(total - (history.between(0.0, mid) + history.between(mid, end))) < 1e-9
    assert abs(total - srv.busy_time()) < 1e-9
    assert all(lo < hi for lo, hi in zip(history.starts, history.ends))
    assert all(hi < lo for hi, lo in zip(history.ends, history.starts[1:]))  # disjoint: merged


@given(samples=st.lists(st.floats(0.0, 1e3, allow_nan=False), min_size=1, max_size=500))
@settings(max_examples=100, deadline=None)
def test_histogram_stats_match_ground_truth(samples):
    h = LatencyHistogram()
    for s in samples:
        h.record(s)
    assert abs(h.mean - sum(samples) / len(samples)) < 1e-6 * max(1.0, max(samples))
    assert h.percentile(0) == min(samples)
    assert h.percentile(100) == max(samples)
    assert min(samples) <= h.trimmed_mean(0.05) <= h.mean + 1e-9


@given(
    points=st.lists(
        st.tuples(st.floats(0.0, 100.0, allow_nan=False), st.floats(0.0, 1e3)),
        min_size=1,
        max_size=300,
    ),
    width=st.floats(0.1, 10.0),
)
@settings(max_examples=100, deadline=None)
def test_bucket_series_conserves_total(points, width):
    s = BucketSeries(bucket_width=width)
    for t, amount in points:
        s.record(t, amount)
    total_recorded = sum(a for _, a in points)
    total_bucketed = sum(s.bucket_totals().values())
    assert abs(total_recorded - total_bucketed) < 1e-6 * max(1.0, total_recorded)


# ---------------------------------------------------------------------------
# WAN fabric invariants (repro.sim.topology)
# ---------------------------------------------------------------------------
@given(
    jitter_ms=st.floats(0.1, 20.0, allow_nan=False),
    gaps=st.lists(st.floats(0.0, 0.005, allow_nan=False), min_size=2, max_size=40),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_wan_link_deliveries_are_fifo_under_jitter(jitter_ms, gaps, seed):
    """A WAN link is an ordered circuit: even when per-crossing jitter
    would make a later frame's raw arrival earlier, deliveries at the
    remote region come in send order at non-decreasing times."""
    sim = Simulator(seed=seed)
    net = GeoNetwork(
        sim, Topology(["a", "b"], wan_latency=0.002, wan_jitter=jitter_ms * 1e-3)
    )
    net.add_node(Node(sim, "na"), region="a")
    nb = net.add_node(Node(sim, "nb"), region="b")
    got = []
    nb.register("p", lambda src, msg: got.append((sim.now, msg)))
    t = 0.0
    for i, gap in enumerate(gaps):
        t += gap
        sim.at(t, net.send, "na", "nb", "p", i, 64)
    sim.run()
    assert [msg for _, msg in got] == list(range(len(gaps)))
    times = [tt for tt, _ in got]
    assert times == sorted(times)


@given(
    sizes=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    cut=st.booleans(),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_cross_region_multicast_is_exactly_once_to_survivors(sizes, cut, seed):
    """One multicast: every subscriber behind a live link receives the
    frame exactly once (one WAN crossing per region, fan-out at the
    remote switch); subscribers behind a cut link receive nothing."""
    sim = Simulator(seed=seed)
    regions = [f"r{i}" for i in range(len(sizes))]
    net = GeoNetwork(sim, Topology(regions, wan_latency=0.003))
    counts: dict[str, int] = {}
    for region, n in zip(regions, sizes):
        for j in range(n):
            name = f"{region}n{j}"
            node = net.add_node(Node(sim, name), region=region)
            node.register(
                "p", lambda src, msg, name=name: counts.__setitem__(
                    name, counts.get(name, 0) + 1
                )
            )
            net.join("g", name)
    sender = f"{regions[0]}n0"
    if cut and len(regions) > 1:
        net.partition_wan(regions[0], regions[-1])
    net.multicast(sender, "g", "p", "payload", 256)
    sim.run()
    severed = {regions[-1]} if cut and len(regions) > 1 else set()
    for region, n in zip(regions, sizes):
        for j in range(n):
            name = f"{region}n{j}"
            expected = 0 if region in severed else 1
            assert counts.get(name, 0) == expected, (name, counts)
    # Each live remote region's link carried the frame exactly once.
    for region in regions[1:]:
        link = net._wan[(regions[0], region)]
        assert link.messages_carried == (0 if region in severed else 1)


@given(
    order=st.permutations(["a0", "a1", "b0", "b1", "c0"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_loss_is_drawn_per_leg_in_membership_order(order, seed):
    """The geo fabric must consult the loss model once per receiver leg,
    in group-membership order — independent of how survivors are later
    bucketed into regions — so loss draws stay reproducible across
    fabrics."""

    class RecordingLoss:
        def __init__(self):
            self.legs = []

        def should_drop(self, rng, src, dst, size):
            self.legs.append(dst)
            return False

    sim = Simulator(seed=seed)
    net = GeoNetwork(sim, Topology(["a", "b", "c"], wan_latency=0.002))
    loss = RecordingLoss()
    net.loss = loss
    for name in order:
        net.add_node(Node(sim, name), region=name[0])
        net.join("g", name)
    sender = order[0]
    net.multicast(sender, "g", "p", "m", 128)
    assert loss.legs == [n for n in order if n != sender]


# ---------------------------------------------------------------------------
# Timer: one lazily re-queued heap entry, the order of cancel-and-repush
# ---------------------------------------------------------------------------
class _CancelAndRepushTimer:
    """The reference: a fresh heap entry per start(), drawn by
    ``sim.schedule`` right there, and called off by stop() and by the next
    start() (the Timer this repository had before it stopped leaving
    tombstones in the heap). The kernel has no cancel any more, so the
    calling-off is a flag kept here: an entry fires only while the arming
    that queued it is still the current one."""

    def __init__(self, sim, delay, fn):
        self.sim, self.delay, self.fn = sim, delay, fn
        self._arming = None  # token of the live entry; None = cancelled or fired
        self.deadline = None  # when the live entry fires

    def start(self, delay=None):
        self._arming = arming = object()
        delay = self.delay if delay is None else delay
        self.deadline = self.sim.now + delay
        self.sim.schedule(delay, self._fire, arming)

    def stop(self):
        self._arming = self.deadline = None

    def _fire(self, arming):
        if arming is self._arming:
            self._arming = self.deadline = None
            self.fn()


class _SeqAtRepushTimer(Timer):
    """Mutant: a restart that keeps the queued entry draws its seq only when
    that entry surfaces and is re-queued, not at start()."""

    def start(self, delay=None):
        delay = self.delay if delay is None else delay
        self.deadline = deadline = self.sim.now + delay
        if self._queued_seq is None or self._queued_time > deadline:
            self._seq = self._queued_seq = seq = self.sim.reserve_seq()
            self._queued_time = deadline
            self.sim.post_reserved(deadline, seq, self._wake, (seq,))
        else:
            self._seq = None  # drawn in _wake

    def _wake(self, seq):
        if seq == self._queued_seq and self.deadline is not None and self._seq is None:
            self._seq = self.sim.reserve_seq()
        super()._wake(seq)


# Quarter steps are exact in binary, so timestamps collide all the time.
_QUARTERS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0])
_WHO = st.integers(0, 2)
_TIMER_OPS = st.one_of(
    st.tuples(st.just("start"), _WHO),
    st.tuples(st.just("start_delay"), _WHO, _QUARTERS),
    st.tuples(st.just("stop"), _WHO),
    st.tuples(st.just("bystander"), _QUARTERS),
    st.tuples(st.just("advance"), _QUARTERS),
)
_TIMER_PROGRAMS = st.tuples(
    st.lists(_QUARTERS, min_size=1, max_size=3),  # default delay of each timer
    st.lists(_TIMER_OPS, min_size=1, max_size=40),
    # What a firing timer does next: restart itself or its neighbour, with
    # a delay (the heartbeat timer restarts itself from its own callback).
    st.lists(st.one_of(st.none(), st.tuples(st.booleans(), _QUARTERS)), max_size=12),
)


def _run_timer_program(timer_class, program, check_entries=False):
    """The log of ``(now, who)`` firings, and ``deadline`` after every step."""
    delays, ops, reactions = program
    sim = Simulator()
    log, deadlines = [], []
    reactions = list(reactions)
    timers = []

    def fire(i):
        log.append((sim.now, i))
        reaction = reactions.pop() if reactions else None
        if reaction is not None:
            restart_self, delay = reaction
            timers[i if restart_self else (i + 1) % len(timers)].start(delay=delay)

    timers.extend(timer_class(sim, d, lambda i=i: fire(i)) for i, d in enumerate(delays))
    bystanders = 0
    for op in ops:
        if op[0] == "advance":
            sim.run(until=sim.now + op[1])
        elif op[0] == "bystander":
            sim.at(sim.now + op[1], log.append, (sim.now + op[1], f"b{bystanders}"))
            bystanders += 1
        else:
            timer = timers[op[1] % len(timers)]
            if op[0] == "start":
                timer.start()
            elif op[0] == "start_delay":
                timer.start(delay=op[2])
            else:
                timer.stop()
        deadlines.append([t.deadline for t in timers])
        if check_entries:
            for t in timers:
                own = [e for e in sim._queue._heap if e[2] == t._wake and e[3][0] == t._queued_seq]
                assert len(own) == (t._queued_seq is not None)
    sim.run()
    return log, deadlines


@given(program=_TIMER_PROGRAMS)
@settings(max_examples=300, deadline=None)
def test_timer_fires_in_the_order_of_cancel_and_repush(program):
    expected = _run_timer_program(_CancelAndRepushTimer, program)
    assert _run_timer_program(Timer, program, check_entries=True) == expected


def test_timer_order_property_rejects_a_seq_drawn_at_repush():
    """The property has teeth: it tells the mutant from the reference."""
    program = find(
        _TIMER_PROGRAMS,
        lambda p: _run_timer_program(_SeqAtRepushTimer, p)
        != _run_timer_program(_CancelAndRepushTimer, p),
        settings=settings(max_examples=2000, derandomize=True, deadline=None),
    )
    assert _run_timer_program(Timer, program) == _run_timer_program(_CancelAndRepushTimer, program)


# ---------------------------------------------------------------------------
# PeriodicTimer: a Timer re-armed from its own callback, the order and the
# ticks of cancel-and-repush
# ---------------------------------------------------------------------------
class _CancelAndRepushPeriodic:
    """The reference: the PeriodicTimer this repository had while the
    kernel could cancel — a fresh entry per tick, drawn by ``sim.at``
    before ``fn`` runs, called off by stop() and by the next start().
    The calling-off is a test-local flag, as in `_CancelAndRepushTimer`."""

    def __init__(self, sim, period, fn):
        self.sim, self.period, self.fn = sim, period, fn
        self._arming = None
        self._next_time = 0.0

    @property
    def running(self):
        return self._arming is not None

    def start(self):
        self._next_time = self.sim.now + self.period
        self._arm()

    def stop(self):
        self._arming = None

    def _arm(self):
        self._arming = arming = object()
        self.sim.at(self._next_time, self._fire, arming)

    def _fire(self, arming):
        if arming is self._arming:
            self._next_time += self.period
            self._arm()
            self.fn()


class _SeqAfterCallbackPeriodic(PeriodicTimer):
    """Mutant: a tick whose callback leaves the timer alone re-arms only
    after ``fn`` has run, so the next tick's seq is drawn behind whatever
    the callback queued."""

    def stop(self):
        super().stop()
        self._stopped = True

    def _fire(self):
        self._next_time += self.period
        self._stopped = False
        self.fn()
        if not self._stopped and self._timer.deadline is None:
            self._timer.start_at(self._next_time)


_PERIODS = st.sampled_from([0.25, 0.5, 0.75, 1.0])
_PERIODIC_OPS = st.one_of(
    st.tuples(st.just("start"), _WHO),
    st.tuples(st.just("stop"), _WHO),
    st.tuples(st.just("bystander"), _QUARTERS),
    st.tuples(st.just("advance"), _QUARTERS),
)
_PERIODIC_PROGRAMS = st.tuples(
    st.lists(_PERIODS, min_size=1, max_size=3),  # period of each timer
    st.lists(_PERIODIC_OPS, min_size=1, max_size=40),
    # What a tick does next: start (restart) or stop itself or its
    # neighbour (the proposer's retransmit timer stops itself from its own
    # callback; a failover restarts a neighbour's).
    st.lists(st.one_of(st.none(), st.tuples(st.booleans(), st.booleans())), max_size=16),
)


def _run_periodic_program(timer_class, program, check_entries=False):
    """The log of ``(now, who)`` ticks, and ``running`` after every step."""
    periods, ops, reactions = program
    sim = Simulator()
    log, running = [], []
    reactions = list(reactions)
    timers = []
    origin, ticks = {}, {}  # who -> time of the latest start(), ticks since

    def act(i, start):
        if start:
            timers[i].start()
            origin[i], ticks[i] = sim.now, 0
        else:
            timers[i].stop()

    def tick(i):
        log.append((sim.now, i))
        ticks[i] += 1
        # Quarter steps: start + k * period is exact, so this is equality.
        assert sim.now == origin[i] + ticks[i] * periods[i]
        reaction = reactions.pop() if reactions else None
        if reaction is not None:
            on_self, start = reaction
            act(i if on_self else (i + 1) % len(timers), start)

    timers.extend(timer_class(sim, p, lambda i=i: tick(i)) for i, p in enumerate(periods))
    bystanders = 0
    for op in ops:
        if op[0] == "advance":
            sim.run(until=sim.now + op[1])
        elif op[0] == "bystander":
            sim.at(sim.now + op[1], log.append, (sim.now + op[1], f"b{bystanders}"))
            bystanders += 1
        else:
            act(op[1] % len(timers), op[0] == "start")
        running.append([t.running for t in timers])
        if check_entries:
            for t in timers:
                own = [e for e in sim._queue._heap if e[2] == t._timer._wake]
                assert len(own) == (t._timer._queued_seq is not None) <= 1
    sim.run(until=sim.now + 3.0)  # a running timer never drains: a window instead
    return log, running


@given(program=_PERIODIC_PROGRAMS)
@settings(max_examples=300, deadline=None)
def test_periodic_timer_ticks_in_the_order_of_cancel_and_repush(program):
    expected = _run_periodic_program(_CancelAndRepushPeriodic, program)
    assert _run_periodic_program(PeriodicTimer, program, check_entries=True) == expected


def test_periodic_order_property_rejects_a_seq_drawn_after_the_callback():
    """The property has teeth: it tells the mutant from the reference."""
    program = find(
        _PERIODIC_PROGRAMS,
        lambda p: _run_periodic_program(_SeqAfterCallbackPeriodic, p)
        != _run_periodic_program(_CancelAndRepushPeriodic, p),
        settings=settings(max_examples=2000, derandomize=True, deadline=None),
    )
    assert _run_periodic_program(PeriodicTimer, program) == _run_periodic_program(
        _CancelAndRepushPeriodic, program
    )
