"""Unit tests for Ring Paxos config, batcher, value store, and messages."""

import pytest

from repro.errors import ConfigurationError
from repro.ringpaxos import (
    Batcher,
    ClientValue,
    DataBatch,
    Phase2A,
    RingConfig,
    SkipRange,
    ValueStore,
)
from repro.ringpaxos.valuestore import REPLY_BYTE_BUDGET, REPLY_MAX_ITEMS, decided_run
from repro.sim import Simulator


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


def test_config_derived_names_include_ring_id():
    cfg = RingConfig(ring_id=7, acceptors=["a"])
    assert cfg.multicast_group == "rp7.group"
    assert cfg.coord_port == "rp7.coord"
    assert cfg.ring_port == "rp7.ring"
    assert cfg.repair_port == "rp7.repair"


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


def test_decided_run_follows_instance_counts_and_stops_at_a_gap():
    decided = {0: DataBatch(0, (cv(10),)), 1: SkipRange(5), 6: DataBatch(1, (cv(10),)),
               8: DataBatch(2, (cv(10),))}
    assert decided_run(decided, 0, 100) == (decided[0], decided[1], decided[6])  # 7 is missing
    assert decided_run(decided, 1, 2) == (decided[1], decided[6])
    assert decided_run(decided, 2, 100) == ()  # inside the skip range: no item starts here
    assert decided_run(decided, 0, 0) == ()


def test_decided_run_is_bounded_by_items_and_bytes():
    small = {i: SkipRange(1) for i in range(1000)}
    assert len(decided_run(small, 0, 1000)) == REPLY_MAX_ITEMS == 256
    big = {i: DataBatch(i, (cv(8192),)) for i in range(100)}
    # The item that crosses the byte budget still goes; the next does not.
    assert len(decided_run(big, 0, 100)) == REPLY_BYTE_BUDGET // 8192 == 8
    odd = {i: DataBatch(i, (cv(60_000),)) for i in range(10)}
    assert len(decided_run(odd, 0, 10)) == 2


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


def test_phase2a_size_includes_batch_and_piggybacked_decisions():
    batch = DataBatch(0, (cv(8192),))
    plain = Phase2A(0, 0, batch)
    piggy = Phase2A(0, 0, batch, decisions=((0, 0), (1, 1)))
    assert plain.size == 64 + 8192
    assert piggy.size == plain.size + 24
