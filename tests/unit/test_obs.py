"""Unit tests for the observability layer (repro.obs)."""

import ast
import io
import json
from pathlib import Path

import pytest

import repro

from repro.bench.report import read_jsonl
from repro.calibration import DEFAULT_VALUE_SIZE
from repro.metrics import MetricsRegistry
from repro.obs import (
    EVENT_FIRED,
    NET_DELIVER,
    NET_DROP,
    NET_ENQUEUE,
    SERVER_BUSY,
    JsonlTraceWriter,
    ObsSession,
    ProbeBus,
    SimProfiler,
)
from repro.obs import probe as probe_module
from repro.obs.probe import KINDS
from repro.ringpaxos import build_ring
from repro.sim import Network, Simulator
from repro.sim.server import FifoServer


# ---------------------------------------------------------------------------
# ProbeBus
# ---------------------------------------------------------------------------
def test_probe_bus_routes_by_kind():
    bus = ProbeBus()
    enqueues, everything = [], []
    bus.subscribe(enqueues.append, kind=NET_ENQUEUE)
    bus.subscribe(everything.append)
    bus.emit(NET_ENQUEUE, 1.0, "n0", dst="n1", size=64)
    bus.emit(NET_DELIVER, 2.0, "n1", src="n0", size=64)
    assert [e.kind for e in enqueues] == [NET_ENQUEUE]
    assert [e.kind for e in everything] == [NET_ENQUEUE, NET_DELIVER]
    assert enqueues[0].data["dst"] == "n1"
    assert enqueues[0].as_record()["type"] == "probe"


def test_probe_bus_unsubscribe_and_counters():
    bus = ProbeBus()
    seen = []
    remove = bus.subscribe(seen.append, kind=EVENT_FIRED)
    assert bus.subscribers
    bus.emit(EVENT_FIRED, 0.0, "fn")
    remove()
    assert not bus.subscribers
    bus.emit(EVENT_FIRED, 1.0, "fn")  # nobody listening: not even counted
    assert len(seen) == 1
    assert bus.events_emitted == 1


def test_probe_bus_without_subscribers_is_a_noop():
    bus = ProbeBus()
    bus.emit(NET_ENQUEUE, 0.0, "n0", size=1)
    assert bus.events_emitted == 0


# The kind constants ``obs/probe.py`` exports, by name.
_KIND_CONSTANTS = {name: getattr(probe_module, name) for name in probe_module.__all__
                   if name.isupper() and name != "KINDS"}


def test_probe_bus_unsubscribing_during_dispatch_does_not_starve_the_next():
    bus = ProbeBus()
    seen = []

    def first(event):
        seen.append("first")
        remove_first()

    remove_first = bus.subscribe(first, kind=NET_DROP)
    bus.subscribe(lambda event: seen.append("second"), kind=NET_DROP)
    bus.emit(NET_DROP, 0.0, "n0")
    assert seen == ["first", "second"]
    bus.emit(NET_DROP, 1.0, "n0")
    assert seen == ["first", "second", "second"]


def test_probe_bus_removal_is_per_subscription_and_idempotent():
    bus = ProbeBus()
    seen = []
    remove_a = bus.subscribe(seen.append, kind=NET_DROP)
    bus.subscribe(seen.append, kind=NET_DROP)  # the same fn, twice
    remove_a()
    remove_a()  # a second call is a no-op, not the other subscription's removal
    bus.emit(NET_DROP, 0.0, "n0")
    assert len(seen) == 1
    assert bus.subscribers == {NET_DROP: [seen.append]}


def test_probe_bus_all_kinds_subscriber_is_one_entry_per_kind():
    assert len(KINDS) == len(set(KINDS)) == 19
    assert set(KINDS) == set(_KIND_CONSTANTS.values())
    bus = ProbeBus()
    order = []
    bus.subscribe(lambda event: order.append("kind"), kind=NET_DROP)
    before = {kind: list(subs) for kind, subs in bus.subscribers.items()}
    remove = bus.subscribe(lambda event: order.append("all"))
    assert set(bus.subscribers) == set(KINDS)
    bus.emit(NET_DROP, 0.0, "n0")
    assert order == ["kind", "all"]  # subscription order, no wildcard-first
    remove()
    assert bus.subscribers == before
    assert bus.subscribers


def _kind_of(node):
    """The kind an emit/gate names: a literal, a constant, or a parameter."""
    if isinstance(node, ast.Constant):
        return node.value
    name = getattr(node, "id", None)
    return _KIND_CONSTANTS.get(name, name)


def test_every_emit_site_is_gated_on_its_own_kind_in_the_subscriber_table():
    """`x.emit(kind, ...)` sits under `if ... kind in x.subscribers`.

    With that, subscribing to "every kind" (one table entry per member of
    ``KINDS``) reaches every site, and an unobserved kind builds no event.
    """
    root = Path(repro.__file__).parent
    sites = 0
    for path in sorted(root.rglob("*.py")):
        if path == root / "obs" / "probe.py":
            continue
        tree = ast.parse(path.read_text())
        parents = {child: parent for parent in ast.walk(tree)
                   for child in ast.iter_child_nodes(parent)}
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "emit"):
                continue
            sites += 1
            where = f"{path.relative_to(root)}:{call.lineno}"
            bus = ast.dump(call.func.value)
            kind = _kind_of(call.args[0])
            node, gated, function = call, False, None
            while node in parents:
                child, node = node, parents[node]
                if isinstance(node, ast.If) and child in node.body:
                    gated = gated or any(
                        isinstance(test, ast.Compare) and isinstance(test.ops[0], ast.In)
                        and _kind_of(test.left) == kind
                        and isinstance(test.comparators[0], ast.Attribute)
                        and test.comparators[0].attr == "subscribers"
                        and ast.dump(test.comparators[0].value) == bus
                        for test in ast.walk(node.test)
                    )
                if function is None and isinstance(node, ast.FunctionDef):
                    function = node
            assert gated, f"{where}: emit({kind!r}) is not under `{kind!r} in <bus>.subscribers`"
            if kind in KINDS:
                continue
            # A helper that takes the kind as its parameter (`_emit(kind, ...)`):
            # every call of it in the module names a member of KINDS.
            assert kind in {a.arg for a in function.args.args}, f"{where}: unknown kind {kind!r}"
            passed = [_kind_of(c.args[0]) for c in ast.walk(tree)
                      if isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
                      and c.func.attr == function.name]
            assert passed and set(passed) <= set(KINDS), f"{where}: {passed}"
    assert sites == 21


# ---------------------------------------------------------------------------
# Probe emission from the substrate
# ---------------------------------------------------------------------------
def test_simulator_emits_event_fired_probes():
    sim = Simulator()
    bus = ProbeBus()
    fired = []
    bus.subscribe(fired.append, kind=EVENT_FIRED)
    sim.attach_probe(bus)
    sim.schedule(0.5, lambda: None)
    sim.run(until=1.0)
    assert len(fired) == 1
    assert fired[0].time == 0.5
    assert "lambda" in fired[0].source


def test_server_emits_busy_probes():
    sim = Simulator()
    server = FifoServer(sim, rate=100.0, name="srv")
    bus = ProbeBus()
    busy = []
    bus.subscribe(busy.append, kind=SERVER_BUSY)
    server.probe = bus
    server.submit(50.0)
    (event,) = busy
    assert event.source == "srv"
    assert event.data["finish"] - event.data["start"] == 0.5


def test_network_emits_enqueue_and_deliver_probes():
    sim = Simulator()
    net = Network(sim)
    from repro.sim.node import Node

    a = net.add_node(Node(sim, "a"))
    net.add_node(Node(sim, "b"))
    assert a is net.node("a")
    received = []
    net.node("b").register("p", lambda src, msg: received.append(msg))
    bus = ProbeBus()
    events = []
    bus.subscribe(events.append)
    net.attach_probe(bus)
    net.send("a", "b", "p", "hello", 1000)
    sim.run(until=1.0)
    kinds = [e.kind for e in events]
    assert NET_ENQUEUE in kinds
    assert NET_DELIVER in kinds
    assert SERVER_BUSY in kinds  # NIC serialization was probed too
    assert received == ["hello"]


def test_enqueue_probes_show_the_ring_paxos_exchange():
    sim = Simulator(seed=2)
    net = Network(sim)
    bus = ProbeBus()
    enqueues = []
    bus.subscribe(enqueues.append, kind=NET_ENQUEUE)
    net.attach_probe(bus)
    ring = build_ring(sim, net)
    ring.proposers[0].multicast("m", DEFAULT_VALUE_SIZE)
    sim.run(until=0.1)
    by_msg = {e.data["msg"]: e.data for e in enqueues}
    # The full Figure 3 exchange is visible: Submit, 2A, 2B, acks.
    assert {"Submit", "Phase2A", "Phase2B", "SubmitAck"} <= set(by_msg)
    # The 2A is an ip-multicast (one enqueue, a group and its fan-out);
    # the 2B travels the ring by unicast.
    assert by_msg["Phase2A"]["group"] == ring.config.multicast_group
    assert by_msg["Phase2A"]["fanout"] == len(net.members(ring.config.multicast_group))
    assert "group" not in by_msg["Phase2B"] and "dst" in by_msg["Phase2B"]


# ---------------------------------------------------------------------------
# SimProfiler
# ---------------------------------------------------------------------------
def _loaded_ring(until=1.0):
    sim = Simulator(seed=11)
    net = Network(sim)
    ring = build_ring(sim, net)
    for i in range(20):
        ring.proposers[0].multicast(f"m{i}", 8000)
    return sim, net, ring


def test_profiler_reports_busy_components():
    sim, net, _ = _loaded_ring()
    profiler = SimProfiler(sim)
    profiler.watch_network(net)
    sim.run(until=1.0)
    rows = profiler.report()
    assert rows, "a loaded ring must show busy components"
    names = {row.component for row in rows}
    assert any(".cpu" in n for n in names)
    assert any(".nic." in n for n in names)
    # Sorted most-utilized first.
    utils = [row.utilization for row in rows]
    assert utils == sorted(utils, reverse=True)
    top = profiler.saturated()
    assert top is not None and top.utilization == utils[0]
    record = rows[0].as_record()
    assert record["type"] == "profile"


def test_profiler_table_names_saturated_resource():
    sim, net, _ = _loaded_ring()
    profiler = SimProfiler(sim)
    profiler.watch_network(net)
    sim.run(until=1.0)
    table = profiler.table()
    assert "saturated resource:" in table
    assert profiler.saturated().component in table


def test_profiler_idle_simulator():
    sim = Simulator()
    profiler = SimProfiler(sim)
    assert profiler.report() == []
    assert profiler.saturated() is None
    assert "none (all components idle)" in profiler.table()


def test_profiler_windowed_report():
    sim = Simulator()
    server = FifoServer(sim, rate=1.0, name="s")
    profiler = SimProfiler(sim)
    profiler.track("solo", server, kind="server")
    server.submit(2.0)  # busy [0, 2]
    sim.run(until=4.0)
    (full,) = profiler.report()
    assert full.busy_s == 2.0
    assert full.utilization == 0.5
    (windowed,) = profiler.report(start=0.0, end=2.0)
    assert windowed.utilization == 1.0


# ---------------------------------------------------------------------------
# SimProfiler: busy intervals read from server.busy
# ---------------------------------------------------------------------------
def _tracked(rate=1.0):
    """A standalone server under a profiler, and its exact-window reader."""
    sim = Simulator()
    server = FifoServer(sim, rate=rate, name="s")
    profiler = SimProfiler(sim)
    profiler.track("solo", server)

    def busy(start, end):
        rows = profiler.report(start, end)
        return rows[0].busy_s if rows else 0.0

    return sim, server, profiler, busy


def test_profiler_windows_are_exact():
    sim, server, _, busy = _tracked()
    server.submit(1.0)  # busy [0, 1]
    sim.run(until=2.0)
    server.submit(0.5)  # busy [2, 2.5]
    sim.run(until=3.0)
    assert busy(0.0, 3.0) == pytest.approx(1.5)
    assert busy(0.5, 2.25) == pytest.approx(0.75)
    assert busy(1.0, 2.0) == 0.0
    assert busy(2.25, 2.25) == 0.0
    # Long after the run, a window entirely in the past reads the same.
    sim.run(until=1000.0)
    assert busy(0.5, 2.25) == pytest.approx(0.75)
    assert busy(0.0, 1000.0) == pytest.approx(1.5)


def test_profiler_merges_contiguous_jobs_into_one_interval():
    sim, server, profiler, busy = _tracked()
    for _ in range(100):
        server.submit(0.01)
    history = profiler._history["s"]
    assert (len(history.starts), len(history.ends), history.jobs) == (1, 1, 100)
    sim.run(until=2.0)
    assert busy(0.0, 2.0) == pytest.approx(1.0)
    assert busy(0.25, 0.75) == pytest.approx(0.5)


class _CountingList(list):
    """List that counts item reads, to bound the window scan."""

    def __init__(self, items=()):
        super().__init__(items)
        self.reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_profiler_window_is_exact_and_bounded_on_a_long_history():
    sim, server, profiler, busy = _tracked()
    # 10,000 disjoint busy intervals [2k, 2k + 0.5]; none is ever trimmed.
    for k in range(10_000):
        sim.run(until=2.0 * k)
        server.submit(0.5)
    history = profiler._history["s"]
    assert len(history.starts) == 10_000
    # Swap in read-counting lists, then query a 3-second window deep in
    # the history: the answer must be exact and the scan must bisect to
    # the window instead of walking all 10,000 entries.
    history.starts = starts = _CountingList(history.starts)
    history.ends = ends = _CountingList(history.ends)
    assert busy(12_000.0, 12_003.0) == pytest.approx(1.0)
    assert starts.reads + ends.reads < 64


def test_profiler_bisect_agrees_with_linear_reference():
    sim, server, profiler, busy = _tracked()
    for k in range(50):
        sim.run(until=3.0 * k)
        server.submit(1.5)
    history = profiler._history["s"]
    intervals = list(zip(history.starts, history.ends))
    assert len(intervals) == 50

    def reference(start, end):
        return sum(
            max(0.0, min(hi, end) - max(lo, start)) for lo, hi in intervals
        )

    for start, end in [(0.0, 200.0), (10.2, 11.0), (74.9, 81.3), (149.0, 150.5),
                       (-5.0, 1.0), (147.5, 400.0), (33.0, 33.0)]:
        assert busy(start, end) == pytest.approx(reference(start, end))


def test_profiler_lifetime_row_excludes_unserved_backlog():
    """Regression: the lifetime short cut read ``total_busy_time``, which
    counts accepted-but-unserved work, so a saturated resource reported a
    utilization above 1 that grew with its backlog."""
    sim, server, profiler, busy = _tracked()
    for _ in range(100):
        server.submit(0.5)  # 50 s of work accepted at t = 0
    sim.run(until=2.0)
    (row,) = profiler.report()
    assert row.utilization == pytest.approx(1.0) and row.utilization <= 1.0
    assert row.busy_s == pytest.approx(busy(-1.0, sim.now))  # the windowed path
    (ahead,) = profiler.report(0.0, 5.0)  # accepted work counts once the window reaches it
    assert ahead.busy_s == pytest.approx(busy(-1.0, 5.0)) and ahead.utilization <= 1.0
    assert server.total_busy_time == pytest.approx(50.0)


def test_profiler_covers_a_node_added_after_watch_network():
    from repro.sim.node import Node

    sim = Simulator()
    net = Network(sim)
    profiler = SimProfiler(sim)
    profiler.watch_network(net)  # attaches a private bus: the network had none
    assert net.probe is not None
    net.add_node(Node(sim, "a"))
    net.add_node(Node(sim, "b", disk_bandwidth=1000.0))
    net.node("b").register("p", lambda src, msg: net.node("b").disk.write(500))
    sim.at(1.0, net.send, "a", "b", "p", "x", int(net.default_bandwidth // 4))
    sim.run(until=3.0)
    assert profiler.utilizations(1.0, 2.0) == pytest.approx(
        {"a.nic.tx": 0.25, "b.nic.rx": 0.25, "b.disk": 0.5}, rel=1e-3
    )
    assert profiler.utilizations(0.0, 1.0) == {}


def test_profiler_shares_a_bus_that_is_already_attached():
    sim = Simulator()
    net = Network(sim)
    bus = ProbeBus()
    net.attach_probe(bus)
    profiler = SimProfiler(sim)
    profiler.watch_network(net)
    profiler.watch_network(net)  # idempotent: one subscription
    assert net.probe is bus
    assert bus.subscribers[SERVER_BUSY] == [profiler._on_busy]


def test_profiler_refuses_a_window_over_submissions_it_missed():
    sim, net, _ = _loaded_ring()  # work submitted before anyone watches
    profiler = SimProfiler(sim)
    profiler.watch_network(net)
    sim.run(until=1.0)
    assert profiler.report()  # lifetime rows come from the servers' counters
    with pytest.raises(RuntimeError, match="did not observe every submission"):
        profiler.report(0.5, 1.0)


# ---------------------------------------------------------------------------
# JSONL export
# ---------------------------------------------------------------------------
def test_jsonl_writer_and_report_readers(tmp_path):
    path = tmp_path / "trace.jsonl"
    with JsonlTraceWriter(str(path)) as writer:
        writer.write({"type": "meta", "x": 1})
        bus = ProbeBus()
        writer.subscribe(bus, kinds=(NET_ENQUEUE,))
        bus.emit(NET_ENQUEUE, 0.5, "a", dst="b", size=10)
        bus.emit(NET_DELIVER, 0.6, "b", src="a", size=10)  # not subscribed
    records = read_jsonl(str(path))
    assert len(records) == 2
    assert records[0] == {"type": "meta", "x": 1}
    assert records[1]["kind"] == NET_ENQUEUE
    assert read_jsonl(str(path), type="probe") == [records[1]]


def test_jsonl_writer_leaves_a_caller_stream_open():
    stream = io.StringIO()
    with JsonlTraceWriter(stream) as writer:
        writer.write({"type": "meta", "x": 1})
    assert not stream.closed
    assert stream.getvalue() == '{"type": "meta", "x": 1}\n'
    assert writer.records_written == 1


def test_collecting_session_records_equal_the_emitted_file(tmp_path):
    # One writer: a sweep worker's collected records are the lines a file
    # trace of the same run holds.
    path = tmp_path / "session.jsonl"
    with ObsSession(emit_path=str(path), probe_kinds=(NET_DROP,)) as emitted:
        sim, _, _ = _loaded_ring()
        sim.run(until=0.5)
    with ObsSession(collect=True, probe_kinds=(NET_DROP,)) as collected:
        sim, _, _ = _loaded_ring()
        sim.run(until=0.5)
    assert emitted.records() == []
    assert collected.records() == read_jsonl(str(path))
    assert collected.records()[0]["type"] == "meta"


# ---------------------------------------------------------------------------
# ObsSession
# ---------------------------------------------------------------------------
def test_obs_session_instruments_created_simulators(tmp_path):
    path = tmp_path / "session.jsonl"
    with ObsSession(emit_path=str(path)) as session:
        sim, net, ring = _loaded_ring()
        sim.run(until=1.0)
    assert session.simulators == [sim]
    assert sim.probe is session.bus
    assert len(session.profilers) == 1
    # Nobody asked for probe records, so not one ProbeEvent was built: the
    # profilers read lifetime rows and subscribe only once the run is over.
    assert session.bus.events_emitted == 0
    assert sim.events_executed > 500
    assert session.registries  # build_ring created a root registry
    assert "saturated resource:" in session.profile_table()
    assert session.saturation_summary()

    records = read_jsonl(str(path))
    types = {r["type"] for r in records}
    assert {"meta", "profile", "metric"} <= types
    assert records[0]["type"] == "meta" and records[0]["probe_events"] == 0
    profile_rows = [r for r in records if r["type"] == "profile"]
    assert all("component" in r and "utilization" in r for r in profile_rows)
    metric_rows = [r for r in records if r["type"] == "metric"]
    delivered = [
        r
        for r in metric_rows
        if r["metric"] == "delivered_messages" and r["labels"].get("role") == "learner"
    ]
    assert delivered and delivered[0]["value"] > 0
    # Every line is independently parseable (JSONL contract).
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            json.loads(line)


def test_obs_session_detaches_on_exit():
    with ObsSession() as session:
        pass
    sim = Simulator()
    assert sim.probe is None
    assert session.simulators == []
    assert session.profile_table().startswith("no simulators")


def test_obs_session_streams_probe_kinds(tmp_path):
    path = tmp_path / "probes.jsonl"
    with ObsSession(emit_path=str(path), probe_kinds=(NET_ENQUEUE,)):
        sim = Simulator()
        net = Network(sim)
        from repro.sim.node import Node

        net.add_node(Node(sim, "a"))
        net.add_node(Node(sim, "b"))
        net.node("b").register("p", lambda src, msg: None)
        net.send("a", "b", "p", "x", 100)
        sim.run(until=1.0)
    probes = read_jsonl(str(path), type="probe")
    assert probes and all(r["kind"] == NET_ENQUEUE for r in probes)
    (meta,) = read_jsonl(str(path), type="meta")
    assert meta["probe_events"] == len(probes) == 1  # only the kind asked for


# ---------------------------------------------------------------------------
# Wired protocol metrics
# ---------------------------------------------------------------------------
def test_protocol_metrics_are_labeled_and_live():
    reg = MetricsRegistry()
    sim = Simulator(seed=3)
    net = Network(sim)
    ring = build_ring(sim, net, metrics=reg)
    for i in range(10):
        ring.proposers[0].multicast(f"m{i}", 8000)
    sim.run(until=1.0)
    coord = ring.coordinator
    assert coord.instances_decided.value > 0
    # The same counters are reachable by name + labels from the registry.
    assert (
        reg.counter(
            "instances_decided", ring=0, role="coordinator", node=coord.node.name
        ).value
        == coord.instances_decided.value
    )
    learner = ring.learners[0]
    assert learner.delivered_messages.value == 10
    assert (
        reg.counter(
            "delivered_messages", ring=0, role="learner", node=learner.node.name
        ).value
        == 10
    )
    # Queue-depth gauges exist and have settled back to empty.
    assert coord.backlog_depth.value == 0
    assert coord.inflight_depth.value == 0
    snapshot_names = {row["metric"] for row in reg.snapshot()}
    assert {"accepts", "delivered_bytes_per_s", "delivery_latency"} <= snapshot_names


def test_multiring_metrics_per_ring_children():
    from repro import MultiRingConfig, MultiRingPaxos

    mrp = MultiRingPaxos(MultiRingConfig(n_groups=2, lambda_rate=50, delta=0.1))
    learner = mrp.add_learner(groups=[0, 1])
    proposer = mrp.add_proposer()
    for i in range(6):
        proposer.multicast(i % 2, payload=f"m{i}", size=4000)
    mrp.run(until=1.0)
    assert learner.delivered_messages.value == 6
    reg = mrp.metrics
    per_ring = [
        reg.counter("instances_decided", ring=rid, role="coordinator",
                    node=f"mr{rid}-coord").value
        for rid in mrp.rings
    ]
    assert all(v > 0 for v in per_ring)
    # The merge's per-ring queue gauges drain once both rings progress.
    for rid in mrp.rings:
        assert learner.merge.queue_gauges[rid].value == learner.merge.queue_depth(rid)
    # Skip manager metrics live under role=skipmgr.
    assert reg.counter("intervals_sampled", ring=0, role="skipmgr").value > 0
