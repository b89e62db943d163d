"""Unit tests for Paxos ballots, values, messages, and storage."""

import pytest

from repro.errors import ConfigurationError
from repro.paxos import (
    NOOP,
    Accept,
    Accepted,
    AcceptorState,
    Decision,
    DurableStorage,
    InMemoryStorage,
    Nack,
    Prepare,
    Promise,
    Value,
    first_round,
    next_round,
    round_owner,
)
from repro.sim import Disk, Simulator


# ---------------------------------------------------------------------------
# Ballot arithmetic
# ---------------------------------------------------------------------------
def test_first_round_is_proposer_id():
    assert first_round(0, 3) == 0
    assert first_round(2, 3) == 2


def test_next_round_is_strictly_increasing_and_owned():
    r = first_round(1, 3)
    for _ in range(10):
        nxt = next_round(r, 1, 3)
        assert nxt > r
        assert round_owner(nxt, 3) == 1
        r = nxt


def test_next_round_jumps_above_foreign_round():
    # Proposer 0 must outbid a round owned by proposer 2.
    r = next_round(17, 0, 3)
    assert r > 17 and round_owner(r, 3) == 0


def test_round_ownership_partitions_integers():
    owners = {round_owner(r, 4) for r in range(100)}
    assert owners == {0, 1, 2, 3}


def test_ballot_validation():
    with pytest.raises(ValueError):
        first_round(3, 3)
    with pytest.raises(ValueError):
        next_round(0, 0, 0)
    with pytest.raises(ValueError):
        round_owner(5, 0)


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------
def test_value_holds_payload_and_size():
    v = Value("cmd", size=100)
    assert v.payload == "cmd" and v.size == 100 and v != NOOP


def test_noop_sentinel():
    assert NOOP == Value(payload=None, size=0)
    assert NOOP.size == 0


def test_value_rejects_negative_size():
    with pytest.raises(ValueError):
        Value("x", size=-1)


# ---------------------------------------------------------------------------
# Message sizes
# ---------------------------------------------------------------------------
def test_control_messages_are_small():
    assert Prepare(0, 1).size == 64
    assert Accepted(0, 1).size == 64
    assert Nack(0, 1, 2).size == 64


def test_value_bearing_messages_pay_value_size():
    v = Value("x", size=8192)
    assert Accept(0, 1, v).size == 64 + 8192
    assert Decision(0, v).size == 64 + 8192
    assert Promise(0, 1, 0, v).size == 64 + 8192
    assert Promise(0, 1, -1, None).size == 64


# ---------------------------------------------------------------------------
# Storage
# ---------------------------------------------------------------------------
def test_inmemory_storage_state_lifecycle():
    st = InMemoryStorage()
    s = st.get(5)
    assert s == AcceptorState(rnd=-1, vrnd=-1, vval=None)
    s.rnd = 3
    assert st.get(5).rnd == 3  # same object
    assert st.known_instances() == [5]


def test_inmemory_persist_is_immediate():
    st = InMemoryStorage()
    done = []
    st.persist(0, 100, lambda: done.append(True), ())
    assert done == [True]


def test_durable_persist_waits_for_disk():
    sim = Simulator()
    disk = Disk(sim, bandwidth=1000.0, write_latency=0.01)
    st = DurableStorage(disk)
    done = []
    st.persist(0, 100, lambda: done.append(sim.now), ())
    assert done == []
    sim.run()
    assert done == [pytest.approx(0.01)]


def test_durable_storage_requires_disk():
    with pytest.raises(ConfigurationError):
        DurableStorage(None)


def test_forget_up_to_garbage_collects():
    st = InMemoryStorage()
    for i in range(10):
        st.get(i)
    st.forget_up_to(6)
    assert st.known_instances() == [7, 8, 9]
