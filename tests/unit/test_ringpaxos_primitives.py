"""Unit tests for Ring Paxos config, batcher, value store, and messages."""

import ast
import dataclasses
import tracemalloc
from pathlib import Path

import pytest

import repro
from repro.calibration import CONTROL_MESSAGE_SIZE
from repro.errors import ConfigurationError
from repro.obs import ProbeEvent
from repro.ringpaxos import (
    Batcher,
    ClientValue,
    DataBatch,
    Phase2A,
    RingConfig,
    SkipRange,
    ValueStore,
    build_ring,
    messages,
)
from repro.ringpaxos.messages import RepairReply, RepairRequest
from repro.ringpaxos.valuestore import REPLY_BYTE_BUDGET, REPLY_MAX_ITEMS, DecidedLog
from repro.sim import Network, Simulator


# ---------------------------------------------------------------------------
# RingConfig
# ---------------------------------------------------------------------------
def test_config_coordinator_is_last_acceptor():
    cfg = RingConfig(ring_id=0, acceptors=["a", "b", "c"])
    assert cfg.coordinator == "c"
    assert cfg.first_acceptor() == "a"
    assert cfg.ring_size == 3


def test_config_successor_chain():
    cfg = RingConfig(ring_id=0, acceptors=["a", "b", "c"])
    assert cfg.successor("a") == "b"
    assert cfg.successor("b") == "c"
    assert cfg.successor("c") is None


def names(cfg):
    return (cfg.multicast_group, cfg.coord_port, cfg.mcast_port, cfg.ring_port, cfg.repair_port)


def test_config_derived_names_include_ring_id():
    cfg = RingConfig(ring_id=7, acceptors=["a"])
    assert names(cfg) == ("rp7.group", "rp7.coord", "rp7.mcast", "rp7.ring", "rp7.repair")


def test_config_derived_names_follow_a_replaced_config():
    cfg = RingConfig(ring_id=7, acceptors=["a", "b"])
    moved = dataclasses.replace(cfg, ring_id=3)
    assert names(moved) == ("rp3.group", "rp3.coord", "rp3.mcast", "rp3.ring", "rp3.repair")
    # The path RingLearner._on_coordinator_change takes: same ring, new layout.
    rotated = dataclasses.replace(cfg, acceptors=["b", "a"])
    assert names(rotated) == names(cfg) and rotated.coordinator == "a"
    # They are derived, not constructor arguments.
    with pytest.raises(TypeError):
        RingConfig(ring_id=7, acceptors=["a"], ring_port="elsewhere")


def test_config_ring_shape_follows_a_replaced_layout():
    # coordinator / ring_size are fields filled in __post_init__, so the one
    # way a ring is reconfigured (RingAcceptor / RingLearner on a
    # CoordinatorChange, RingFailover) recomputes them.
    cfg = RingConfig(ring_id=0, acceptors=["a", "b", "c"])
    shrunk = dataclasses.replace(cfg, acceptors=["c", "a"])
    assert (shrunk.coordinator, shrunk.ring_size) == ("a", 2)
    assert (cfg.coordinator, cfg.ring_size) == ("c", 3)
    assert cfg == RingConfig(ring_id=0, acceptors=["a", "b", "c"])
    assert "coordinator" not in repr(cfg) and "ring_size" not in repr(cfg)
    with pytest.raises(TypeError):
        RingConfig(ring_id=0, acceptors=["a"], coordinator="a")


def _through_config_acceptors(node):
    """True for an expression that reaches ``<...>config.acceptors``."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if (isinstance(node, ast.Attribute) and node.attr == "acceptors"
                and "config" in ast.unparse(node.value)):
            return True
        node = node.value
    return False


def test_nothing_mutates_a_ring_configs_acceptor_list_in_place():
    """The stored ``coordinator`` / ``ring_size`` are sound only while this holds."""
    root = Path(repro.__file__).parent
    mutators = {"append", "remove", "pop", "insert", "extend", "clear", "sort", "reverse"}
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.relative_to(root)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                assert not (node.func.attr in mutators
                            and _through_config_acceptors(node.func.value)), where
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                assert not _through_config_acceptors(target), where


def test_config_preferential_acceptor_spreads_learners():
    cfg = RingConfig(ring_id=0, acceptors=["a", "b"])
    assert cfg.preferential_acceptor(0) == "a"
    assert cfg.preferential_acceptor(1) == "b"
    assert cfg.preferential_acceptor(2) == "a"


def test_config_validation():
    with pytest.raises(ConfigurationError):
        RingConfig(ring_id=-1, acceptors=["a"])
    with pytest.raises(ConfigurationError):
        RingConfig(ring_id=0, acceptors=[])
    with pytest.raises(ConfigurationError):
        RingConfig(ring_id=0, acceptors=["a", "a"])
    with pytest.raises(ConfigurationError):
        RingConfig(ring_id=0, acceptors=["a"], window=0)


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
@pytest.mark.parametrize(
    "knob",
    [
        "batch_timeout", "retry_timeout", "heartbeat_interval", "repair_interval",
        "suspect_timeout", "decision_flush_timeout", "window", "batch_size",
    ],
)
def test_config_rejects_a_bad_knob_before_anything_is_attached(knob, bad):
    sim = Simulator()
    network = Network(sim)
    with pytest.raises(ConfigurationError):
        build_ring(sim, network, **{knob: bad})
    assert network.nodes == {}


def test_config_accepts_zero_durations_but_not_a_zero_window():
    RingConfig(ring_id=0, acceptors=["a"], batch_timeout=0.0, decision_flush_timeout=0.0)
    for knob in ("window", "batch_size"):
        with pytest.raises(ConfigurationError):
            RingConfig(ring_id=0, acceptors=["a"], **{knob: 0})


# ---------------------------------------------------------------------------
# Batcher
# ---------------------------------------------------------------------------
def cv(size, seq=0):
    return ClientValue(payload=b"x", size=size, seq=seq)


def test_batcher_flushes_when_full():
    sim = Simulator()
    flushed = []
    b = Batcher(sim, batch_size=100, batch_timeout=1.0, flush_fn=flushed.append)
    b.add(cv(60))
    assert flushed == []
    b.add(cv(40))
    assert len(flushed) == 1
    assert len(flushed[0]) == 2


def test_batcher_flushes_on_timeout():
    sim = Simulator()
    flushed = []
    b = Batcher(sim, batch_size=1000, batch_timeout=0.001, flush_fn=flushed.append)
    b.add(cv(10))
    sim.run(until=0.01)
    assert len(flushed) == 1


def test_batcher_oversized_value_goes_alone():
    sim = Simulator()
    flushed = []
    b = Batcher(sim, batch_size=100, batch_timeout=1.0, flush_fn=flushed.append)
    b.add(cv(10))
    b.add(cv(500))
    assert len(flushed) == 2
    assert [len(f) for f in flushed] == [1, 1]
    assert flushed[1][0].size == 500


def test_batcher_exact_batch_size_flushes():
    sim = Simulator()
    flushed = []
    b = Batcher(sim, batch_size=100, batch_timeout=1.0, flush_fn=flushed.append)
    b.add(cv(100))
    assert len(flushed) == 1


def test_batcher_manual_flush_and_counters():
    sim = Simulator()
    flushed = []
    b = Batcher(sim, batch_size=1000, batch_timeout=1.0, flush_fn=flushed.append)
    b.add(cv(10))
    b.add(cv(20))
    assert b.pending_count == 2 and b.pending_bytes == 30
    b.flush()
    assert b.pending_count == 0 and len(flushed) == 1
    b.flush()  # no-op on empty
    assert len(flushed) == 1
    assert b.values_batched == 2


def test_batcher_stop_disarms_timer():
    sim = Simulator()
    flushed = []
    b = Batcher(sim, batch_size=1000, batch_timeout=0.001, flush_fn=flushed.append)
    b.add(cv(10))
    b.stop()
    sim.run(until=1.0)
    assert flushed == []


# ---------------------------------------------------------------------------
# ValueStore
# ---------------------------------------------------------------------------
def test_valuestore_put_get_forget():
    vs = ValueStore()
    item = DataBatch(1, (cv(10),))
    vs.put(1, item)
    assert 1 in vs and vs.get(1) is item
    vs.forget(1)
    assert vs.get(1) is None


def test_valuestore_put_is_idempotent():
    vs = ValueStore()
    first = DataBatch(1, (cv(10),))
    vs.put(1, first)
    vs.put(1, DataBatch(1, (cv(99),)))
    assert vs.get(1) is first
    assert vs.stored == 1


def test_valuestore_evicts_oldest_beyond_cap():
    vs = ValueStore(max_entries=3)
    for i in range(5):
        vs.put(i, DataBatch(i, (cv(1),)))
    assert len(vs) == 3
    assert vs.get(0) is None and vs.get(1) is None
    assert vs.get(4) is not None
    assert vs.evicted == 2


def test_valuestore_forgetting_in_order_leaves_no_trail():
    # A learner puts each value at its 2A and forgets it at delivery.
    vs = ValueStore()
    item = DataBatch(0, (cv(10),))
    for i in range(100_000):
        vs.put(i, item)
        if i >= 32:  # a window of undelivered values, as on a ring
            vs.forget(i - 32)
    assert len(vs) == 32 and len(vs._insertion_order) <= 2 * 32 + 65
    # The 32 now stay; a forgotten id behind a live one goes all the same.
    for i in range(100_000):
        vs.put(100_000 + i, item)
        vs.forget(100_000 + i)
    assert len(vs) == 32 and len(vs._insertion_order) <= 2 * 32 + 65
    assert (vs.stored, vs.evicted) == (200_000, 0)
    assert sorted(vs._items) == list(range(100_000 - 32, 100_000))


def test_valuestore_without_forget_still_evicts_oldest_first():
    vs = ValueStore(max_entries=100)
    item = DataBatch(0, (cv(10),))
    for i in range(1000):
        vs.put(i, item)
    assert list(vs._items) == list(range(900, 1000)) and vs.evicted == 900
    vs.forget(950)  # a forgotten id in the middle is skipped, not counted
    for i in range(1000, 1100):
        vs.put(i, item)
    assert list(vs._items) == list(range(1000, 1100)) and vs.evicted == 999


def test_valuestore_retains_nothing_per_forgotten_value():
    vs = ValueStore()
    item = DataBatch(0, (cv(10),))

    def churn(start, n):
        for i in range(start, start + n):
            vs.put(i, item)
            vs.forget(i)

    tracemalloc.start()
    try:
        churn(0, 1000)  # the queue reaches its steady length
        before, _ = tracemalloc.get_traced_memory()
        churn(1000, 50_000)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Keeping every id in the insertion-order queue cost megabytes here.
    assert after - before < 4096


def log_of(decided: dict, limit: int = 100_000) -> DecidedLog:
    log = DecidedLog(limit)
    for instance, item in decided.items():
        log.add(instance, item)
    return log


def run_of(decided: dict, start: int, count: int) -> tuple:
    """The items one repair reply carries from ``start`` (``()`` for none)."""
    reply = log_of(decided).reply(RepairRequest(start, count))
    return () if reply is None else reply.items


def test_a_repair_reply_follows_instance_counts_and_stops_at_a_gap():
    decided = {0: DataBatch(0, (cv(10),)), 1: SkipRange(5), 6: DataBatch(1, (cv(10),)),
               8: DataBatch(2, (cv(10),))}
    assert run_of(decided, 0, 100) == (decided[0], decided[1], decided[6])  # 7 is missing
    assert run_of(decided, 1, 2) == (decided[1], decided[6])
    assert run_of(decided, 2, 100) == ()  # inside the skip range: no item starts here
    assert run_of(decided, 0, 0) == ()


def test_a_repair_reply_is_bounded_by_items_and_bytes():
    small = {i: SkipRange(1) for i in range(1000)}
    assert len(run_of(small, 0, 1000)) == REPLY_MAX_ITEMS == 256
    big = {i: DataBatch(i, (cv(8192),)) for i in range(100)}
    # The item that crosses the byte budget still goes; the next does not.
    assert len(run_of(big, 0, 100)) == REPLY_BYTE_BUDGET // 8192 == 8
    odd = {i: DataBatch(i, (cv(60_000),)) for i in range(10)}
    assert len(run_of(odd, 0, 10)) == 2


def test_a_repair_is_answered_only_with_items():
    decided = {0: DataBatch(0, (cv(10),)), 1: SkipRange(5)}
    log = log_of(decided)
    assert log.reply(RepairRequest(0, 4)) == RepairReply(0, (decided[0], decided[1]))
    assert log.reply(RepairRequest(1, 1)) == RepairReply(1, (decided[1],))
    # Nothing to send: no reply, and the learner asks another member later.
    assert log.reply(RepairRequest(6, 4)) is None
    assert log.reply(RepairRequest(2, 4)) is None  # inside the skip range


def test_the_decided_prefix_extends_over_items_already_held():
    log = DecidedLog(100)
    log.add(6, DataBatch(1, (cv(10),)))
    log.add(1, SkipRange(5))
    assert log.prefix == 0  # instance 0 is not decided here yet
    log.add(0, DataBatch(0, (cv(10),)))
    assert log.prefix == 7  # 0, then the skip over 1-5, then 6
    log.add(8, DataBatch(2, (cv(10),)))
    assert log.prefix == 7  # 7 is still missing
    log.add(7, SkipRange(1))
    assert log.prefix == 9


def test_the_decided_log_keeps_the_newest_items_within_its_bound():
    log = DecidedLog(3)
    for instance in range(5):
        log.add(instance, SkipRange(1))
    assert [instance for instance, _ in log.items()] == [2, 3, 4]
    assert log.prefix == 5  # a dropped item leaves the prefix where it was
    assert log.reply(RepairRequest(1, 4)) is None
    assert log.reply(RepairRequest(2, 4)) == RepairReply(2, (SkipRange(1),) * 3)


def test_a_second_add_at_an_instance_changes_nothing():
    log = DecidedLog(2)
    first = DataBatch(0, (cv(10),))
    log.add(0, first)
    log.add(1, SkipRange(1))
    log.add(0, DataBatch(9, (cv(20),)))
    assert list(log.items()) == [(0, first), (1, SkipRange(1))]  # nothing dropped either
    assert log.prefix == 2


# ---------------------------------------------------------------------------
# Decided items / messages
# ---------------------------------------------------------------------------
def test_databatch_size_and_instance_count():
    batch = DataBatch(0, (cv(100), cv(200)))
    assert batch.size == 300
    assert batch.instance_count == 1


def test_skiprange_represents_many_instances():
    skip = SkipRange(count=5000)
    assert skip.instance_count == 5000
    assert skip.size == 64  # one small message regardless of count


def test_skiprange_instance_count_is_a_derived_write_once_slot():
    skip = SkipRange(3)
    assert skip.instance_count == 3
    assert skip == SkipRange(count=3) and hash(skip) == hash(SkipRange(3))
    assert skip != SkipRange(4) and repr(skip) == "SkipRange(count=3)"
    with pytest.raises(TypeError):
        SkipRange(3, 3)  # not a constructor argument
    # tests/conftest.py accepted __post_init__'s store and rejects a later one.
    with pytest.raises(dataclasses.FrozenInstanceError):
        skip.instance_count = 4
    assert skip.instance_count == 3


def _every_message():
    """One instance of every class of ``messages.py`` with its wire size."""
    c = CONTROL_MESSAGE_SIZE
    value = cv(100, seq=3)
    batch = DataBatch(9, (cv(100), cv(200)))
    skip = SkipRange(count=7)
    m = messages
    return [
        (value, 100),
        (batch, 300),
        (skip, c),
        (m.Submit(value, floor=2), c + 100),
        (m.SubmitAck(4, 3, 12), c),
        (Phase2A(5, 1, 9, batch, attempt=1, decisions=((3, 7), (4, 8))), c + 300 + 2 * 12),
        (Phase2A(6, 1, m.value_id_of(6, 1, skip), skip), c + c),
        (m.Phase2B(5, 1, 9, 0, 2), c),
        (m.DecisionAnnounce(((3, 7), (4, 8), (5, 9))), c + 3 * 12),
        (m.Heartbeat(6), c),
        (m.RepairRequest(5, count=4), c),
        (m.RepairReply(5, (batch, skip)), c + 300 + c),
        (m.CheckpointAck("rep0", 0, 5), c),
        (m.ConfigChange(2, 1, 0, 1, "join"), c),
        (m.MoveRequest(2, 1, 0, 1, release=True), c),
        (m.MoveReply(2, release=True), c),
        (m.PrepareRange(5, 2), c),
        (m.PromiseRange(5, 2, ((5, 1, batch), (6, 1, skip))), c + 300 + c),
        (m.CoordinatorChange(0, ("a", "b", "c"), 2), c + 3 * 16),
    ]


MESSAGE_CLASSES = [
    cls for cls in (getattr(messages, name) for name in messages.__all__)
    if dataclasses.is_dataclass(cls)
]


def test_every_message_class_has_its_byte_formula():
    table = _every_message()
    assert {type(msg) for msg, _ in table} == set(MESSAGE_CLASSES)
    assert len(MESSAGE_CLASSES) == 18
    for msg, size in table:
        assert msg.size == size, msg
    assert DataBatch(0, ()).size == 0 and DataBatch(0, ()).instance_count == 1
    assert [item.instance_count for item, _ in table[1:3]] == [1, 7]


def test_messages_keep_value_equality_and_hash():
    for (a, _), (b, _) in zip(_every_message(), _every_message()):
        assert a is not b and a == b and hash(a) == hash(b), a
    value = cv(100, seq=3)
    assert value in {cv(100, seq=3)} and cv(100, seq=4) not in {value}
    assert {value: "kept"}[cv(100, seq=3)] == "kept"
    assert cv(100, seq=3) != cv(101, seq=3)
    # A batch's size is derived from its values, so it is in neither.
    assert DataBatch(1, (value,)) == DataBatch(1, (cv(100, seq=3),))
    assert DataBatch(1, (value,)) != DataBatch(2, (value,))


def test_a_second_store_to_a_message_raises_under_the_suite():
    # tests/conftest.py: messages are immutable by contract, and the suite
    # enforces it with a write-once __setattr__ on every message class.
    msg = Phase2A(5, 1, 9, DataBatch(9, (cv(100),)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        msg.instance = 6
    with pytest.raises(dataclasses.FrozenInstanceError):
        msg.item.size = 0  # filled once, by __post_init__
    with pytest.raises(dataclasses.FrozenInstanceError):
        del msg.rnd
    with pytest.raises(dataclasses.FrozenInstanceError):
        SkipRange(3).size = 1  # a class constant, not a slot
    event = ProbeEvent(0.5, "net.enqueue", "n0", {})
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.time = 0.6
    assert (msg.instance, msg.rnd, msg.item.size, event.time) == (5, 1, 100, 0.5)
    for cls in (*MESSAGE_CLASSES, ProbeEvent):
        assert cls.__setattr__ is not object.__setattr__, cls


def test_phase2a_size_includes_batch_and_piggybacked_decisions():
    batch = DataBatch(0, (cv(8192),))
    plain = Phase2A(0, 0, 0, batch)
    piggy = Phase2A(0, 0, 0, batch, decisions=((0, 0), (1, 1)))
    assert plain.size == 64 + 8192
    assert piggy.size == plain.size + 24
