"""Property-based tests for protocol-level invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paxos import InMemoryStorage, first_round, next_round, round_owner
from repro.smr import Command, KeyValueStore, RangePartitioner


# ---------------------------------------------------------------------------
# Ballot arithmetic
# ---------------------------------------------------------------------------
@given(
    n=st.integers(1, 16),
    pid=st.data(),
    current=st.integers(-1, 10**6),
)
@settings(max_examples=200, deadline=None)
def test_next_round_strictly_above_and_owned(n, pid, current):
    p = pid.draw(st.integers(0, n - 1))
    nxt = next_round(current, p, n)
    assert nxt > current
    assert round_owner(nxt, n) == p


@given(n=st.integers(1, 16))
@settings(max_examples=50, deadline=None)
def test_first_rounds_are_disjoint(n):
    firsts = [first_round(p, n) for p in range(n)]
    assert len(set(firsts)) == n


@given(n=st.integers(1, 8), p=st.data(), steps=st.integers(1, 30))
@settings(max_examples=100, deadline=None)
def test_round_sequences_never_collide(n, p, steps):
    """Two different proposers can never generate the same round."""
    pa = p.draw(st.integers(0, n - 1))
    pb = p.draw(st.integers(0, n - 1))
    if pa == pb or n == 1:
        return
    seq_a, seq_b = set(), set()
    ra, rb = first_round(pa, n), first_round(pb, n)
    for _ in range(steps):
        seq_a.add(ra)
        seq_b.add(rb)
        ra = next_round(ra, pa, n)
        rb = next_round(rb, pb, n)
    assert not (seq_a & seq_b)


# ---------------------------------------------------------------------------
# The acceptor's vote record: AcceptorStorage.accept / note_floor
# ---------------------------------------------------------------------------
vote_op = st.one_of(
    st.tuples(st.just("accept"), st.integers(0, 4), st.integers(0, 12)),
    st.tuples(st.just("floor"), st.integers(-1, 12)),
)


@given(ops=st.lists(vote_op, max_size=60))
@settings(max_examples=300, deadline=None)
def test_accept_rule_over_random_votes_and_promises(ops):
    """No vote below the floor or the instance's round; the floor and every
    instance's rnd never decrease; a refused accept changes nothing."""
    storage = InMemoryStorage()

    def record():
        return storage.floor, {
            i: (s.rnd, s.vrnd, s.vval)
            for i in storage.known_instances()
            for s in [storage.get(i)]
        }

    for op in ops:
        if op[0] == "accept":
            storage.get(op[1])  # the instance's record, blank if new
        floor, states = record()
        if op[0] == "floor":
            storage.note_floor(op[1])
        else:
            _, instance, rnd = op
            # One value per (instance, round), as one proposer per round sends.
            if storage.accept(instance, rnd, f"v{instance}.{rnd}"):
                assert rnd >= floor and rnd >= states[instance][0]
                assert storage.get(instance).vrnd == rnd
            else:
                assert rnd < max(floor, states[instance][0])
                assert record() == (floor, states)
        new_floor, new_states = record()
        assert new_floor >= floor
        for i, (r, _, _) in states.items():
            assert new_states[i][0] >= r


# ---------------------------------------------------------------------------
# KeyValueStore vs a model (Python set)
# ---------------------------------------------------------------------------
op_strategy = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 200)),
    st.tuples(st.just("delete"), st.integers(0, 200)),
    st.tuples(st.just("query"), st.tuples(st.integers(0, 200), st.integers(0, 200))),
)


@given(ops=st.lists(op_strategy, max_size=200))
@settings(max_examples=200, deadline=None)
def test_kvstore_agrees_with_set_model(ops):
    kv = KeyValueStore()
    model: set[int] = set()
    for op, arg in ops:
        if op == "insert":
            assert kv.insert(arg) == (arg not in model)
            model.add(arg)
        elif op == "delete":
            assert kv.delete(arg) == (arg in model)
            model.discard(arg)
        else:
            lo, hi = min(arg), max(arg)
            assert kv.query(lo, hi) == sorted(k for k in model if lo <= k <= hi)
    assert len(kv) == len(model)


@given(ops=st.lists(op_strategy, max_size=100), seed=st.integers(0, 100))
@settings(max_examples=100, deadline=None)
def test_kvstore_determinism(ops, seed):
    """Two replicas applying the same command sequence agree exactly."""
    a, b = KeyValueStore(), KeyValueStore()
    for op, arg in ops:
        args = (min(arg), max(arg)) if op == "query" else (arg,)
        ra = a.apply(Command(op, args))
        rb = b.apply(Command(op, args))
        assert ra == rb
    assert a.query(0, 200) == b.query(0, 200)


# ---------------------------------------------------------------------------
# RangePartitioner
# ---------------------------------------------------------------------------
@given(
    n=st.integers(1, 32),
    key_space=st.integers(32, 10_000),
    key=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_partition_of_is_consistent_with_ranges(n, key_space, key):
    part = RangePartitioner(n, key_space=key_space)
    k = key.draw(st.integers(0, key_space - 1))
    p = part.partition_of(k)
    lo, hi = part.range_of_partition(p)
    assert lo <= k < hi


@given(n=st.integers(1, 16), key_space=st.integers(16, 5000))
@settings(max_examples=100, deadline=None)
def test_partitions_tile_the_key_space(n, key_space):
    part = RangePartitioner(n, key_space=key_space)
    edges = [part.range_of_partition(p) for p in range(n)]
    assert edges[0][0] == 0
    assert edges[-1][1] == key_space
    for (_, h1), (l2, _) in zip(edges, edges[1:]):
        assert h1 == l2


@given(
    n=st.integers(1, 16),
    bounds=st.tuples(st.integers(0, 999), st.integers(0, 999)),
)
@settings(max_examples=200, deadline=None)
def test_range_routing_reaches_every_owner(n, bounds):
    """group_of_range sends the query where every matching key lives."""
    part = RangePartitioner(n, key_space=1000)
    kmin, kmax = min(bounds), max(bounds)
    group = part.group_of_range(kmin, kmax)
    owners = {part.partition_of(k) for k in range(kmin, kmax + 1)}
    if group == part.all_group:
        assert len(owners) >= 1
        # Intersection test agrees with ownership.
        for p in range(n):
            assert part.intersects(p, kmin, kmax) == (p in owners)
    else:
        assert owners == {group}
