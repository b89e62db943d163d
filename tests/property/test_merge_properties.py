"""Property-based tests for the deterministic merge (hypothesis).

The merge is the heart of Multi-Ring Paxos's correctness argument: any
two learners with the same subscription set must deliver the identical
sequence, no matter how the per-ring streams interleave on arrival. We
check that against a reference implementation of Algorithm 1's Task 4.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import DeterministicMerge
from repro.ringpaxos import ClientValue, DataBatch, SkipRange

# One ring's stream: a list of items, each either a data batch carrying
# one tagged message or a skip range of 1-50 instances.
item_strategy = st.one_of(
    st.tuples(st.just("data"), st.integers(0, 0)),
    st.tuples(st.just("skip"), st.integers(1, 50)),
)
stream_strategy = st.lists(item_strategy, min_size=0, max_size=20)


def build_streams(raw_streams):
    """Materialise raw (kind, n) streams into decided items with instances."""
    streams = []
    for ring_idx, raw in enumerate(raw_streams):
        instance = 0
        items = []
        for i, (kind, n) in enumerate(raw):
            if kind == "data":
                value = ClientValue(payload=f"r{ring_idx}i{instance}", size=8)
                items.append((instance, DataBatch(value_id=instance, values=(value,))))
                instance += 1
            else:
                items.append((instance, SkipRange(n)))
                instance += n
        streams.append(items)
    return streams


def reference_merge(streams, m):
    """Algorithm 1 Task 4, executed directly over complete streams."""
    # Expand each stream into a list of logical instances: payload or None.
    logical = []
    for items in streams:
        expanded = []
        for _, item in items:
            if isinstance(item, SkipRange):
                expanded.extend([None] * item.count)
            else:
                expanded.append(item.values[0].payload)
        logical.append(expanded)
    delivered = []
    cursors = [0] * len(streams)
    # Round-robin M instances per ring until every stream is exhausted.
    while True:
        progressed = False
        for ring in range(len(streams)):
            for _ in range(m):
                if cursors[ring] < len(logical[ring]):
                    value = logical[ring][cursors[ring]]
                    cursors[ring] += 1
                    progressed = True
                    if value is not None:
                        delivered.append(value)
        if not progressed:
            return delivered


@given(
    raw=st.lists(stream_strategy, min_size=1, max_size=4),
    m=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=200, deadline=None)
def test_merge_matches_reference_under_any_interleaving(raw, m, seed):
    """Arrival interleaving must not affect the delivered sequence.

    Caveat from Algorithm 1: the merge *blocks* on a ring whose stream is
    shorter than the others', so only the prefix deliverable under
    round-robin blocking is compared.
    """
    import random

    streams = build_streams(raw)
    out = []
    merge = DeterministicMerge(
        ring_order=list(range(len(streams))),
        m=m,
        on_deliver=lambda rid, inst, v: out.append(v.payload),
    )
    # Random but per-ring-ordered interleaving of pushes.
    rng = random.Random(seed)
    cursors = [0] * len(streams)
    remaining = sum(len(s) for s in streams)
    while remaining:
        candidates = [i for i in range(len(streams)) if cursors[i] < len(streams[i])]
        ring = rng.choice(candidates)
        instance, item = streams[ring][cursors[ring]]
        cursors[ring] += 1
        remaining -= 1
        merge.push(ring, instance, item)
    reference = reference_merge(streams, m)
    # The live merge can only deliver what round-robin blocking allows;
    # its output must be a prefix of the reference order.
    assert out == reference[: len(out)]


@given(
    raw=st.lists(stream_strategy, min_size=1, max_size=3),
    m=st.integers(1, 4),
)
@settings(max_examples=100, deadline=None)
def test_two_merges_agree_exactly(raw, m):
    """Same streams, opposite arrival orders -> identical delivery."""
    streams = build_streams(raw)
    outputs = []
    for reverse in (False, True):
        out = []
        merge = DeterministicMerge(
            ring_order=list(range(len(streams))),
            m=m,
            on_deliver=lambda rid, inst, v: out.append(v.payload),
        )
        ring_ids = list(range(len(streams)))
        if reverse:
            ring_ids.reverse()
        for ring in ring_ids:
            for instance, item in streams[ring]:
                merge.push(ring, instance, item)
        outputs.append(out)
    assert outputs[0] == outputs[1]


@given(raw=st.lists(stream_strategy, min_size=1, max_size=3), m=st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_merge_never_reorders_within_a_ring(raw, m):
    """Per-ring FIFO: each ring's messages are delivered in stream order."""
    streams = build_streams(raw)
    out = []
    merge = DeterministicMerge(
        ring_order=list(range(len(streams))),
        m=m,
        on_deliver=lambda rid, inst, v: out.append((rid, v.payload)),
    )
    for ring in range(len(streams)):
        for instance, item in streams[ring]:
            merge.push(ring, instance, item)
    for ring in range(len(streams)):
        mine = [p for r, p in out if r == ring]
        expected = [
            item.values[0].payload
            for _, item in streams[ring]
            if isinstance(item, DataBatch)
        ]
        assert mine == expected[: len(mine)]


@given(raw=st.lists(stream_strategy, min_size=2, max_size=3))
@settings(max_examples=50, deadline=None)
def test_buffered_instances_accounting_is_exact(raw):
    """The buffer gauge equals pushed-minus-consumed logical instances."""
    streams = build_streams(raw)
    merge = DeterministicMerge(
        ring_order=list(range(len(streams))),
        m=1,
        on_deliver=lambda *a: None,
    )
    pushed = 0
    for ring in range(len(streams)):
        for instance, item in streams[ring]:
            merge.push(ring, instance, item)
            pushed += item.instance_count
    assert merge.buffered_instances.value == pushed - merge.consumed_instances.value
    assert merge.buffered_instances.value >= 0


class _PerInstanceMerge:
    """Reference merge that walks one logical instance at a time.

    The live merge absorbs whole rounds of skips in one step; after every
    push it must be in exactly the state this walk reaches.
    """

    def __init__(self, ring_order, m):
        self.m = m
        self.order = list(ring_order)
        self.queues = {rid: [] for rid in ring_order}  # payload, or None for a skip
        self.cursor = 0
        self.quota = m
        self.round = 0
        self.last = None  # (round, ring) of the last instance consumed
        self.consumed = self.skipped = 0
        self.delivered = []

    @property
    def buffered(self):
        return sum(len(q) for q in self.queues.values())

    def positions(self):
        """Each ring's next instance: rings before the cursor have had this
        round's turn, the cursor's ring has used ``M - quota`` of it."""
        return {
            rid: (self.round + (i < self.cursor)) * self.m
            + (self.m - self.quota if i == self.cursor else 0)
            for i, rid in enumerate(self.order)
        }

    def place(self, ring_id):
        """Where a ring joined now starts: its first instance past the
        last one consumed in (round, ring) order."""
        if self.last is None:
            return 0
        rnd, ring = self.last
        return (rnd + (ring_id < ring)) * self.m

    def switch(self, ring_order):
        # The rings that stay keep their positions, a new one starts at its
        # place, and the walk goes on at the smallest (round, ring).
        positions = self.positions()
        positions = {rid: positions.get(rid, self.place(rid)) for rid in ring_order}
        self.queues = {rid: self.queues.get(rid, []) for rid in ring_order}
        self.order = list(ring_order)
        turn = min(ring_order, key=lambda rid: (positions[rid] // self.m, rid))
        self.cursor = ring_order.index(turn)
        self.round, used = divmod(positions[turn], self.m)
        self.quota = self.m - used

    def push(self, ring_id, item):
        if ring_id not in self.queues:
            return
        if isinstance(item, SkipRange):
            self.queues[ring_id].extend([None] * item.count)
        else:
            self.queues[ring_id].append(item.values[0].payload)
        while self.queues[self.order[self.cursor]]:
            value = self.queues[self.order[self.cursor]].pop(0)
            self.last = (self.round, self.order[self.cursor])
            self.consumed += 1
            if value is None:
                self.skipped += 1
            else:
                self.delivered.append(value)
            self.quota -= 1
            if self.quota == 0:
                self.cursor = (self.cursor + 1) % len(self.order)
                self.round += self.cursor == 0
                self.quota = self.m


@given(
    raw=st.lists(stream_strategy, min_size=1, max_size=4),
    m=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    new_order=st.lists(st.integers(0, 4), min_size=1, max_size=4, unique=True).map(sorted),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_merge_state_matches_per_instance_walk_after_every_push(raw, m, seed, new_order, data):
    """Taking skips a round at a time is invisible between pushes.

    Per-ring positions, counters and gauges equal the per-instance
    reference after each push, across rings joined (at their place) and
    left somewhere in the stream.
    """
    import random

    streams = build_streams(raw)
    rings = list(range(len(streams)))
    out = []
    merge = DeterministicMerge(
        ring_order=rings, m=m, on_deliver=lambda rid, inst, v: out.append(v.payload)
    )
    reference = _PerInstanceMerge(rings, m)
    rng = random.Random(seed)
    cursors = [0] * len(streams)
    total = sum(len(s) for s in streams)
    reorder_at = data.draw(st.integers(0, total))
    for step in range(total):
        if step == reorder_at:
            for rid in new_order:  # join first: the place counts every ring
                if rid not in merge.rings:
                    merge.join(rid, reference.place(rid))
            for rid in list(merge.rings):
                if rid not in new_order:
                    merge.leave(rid)
            reference.switch(new_order)
        ring = rng.choice([i for i in rings if cursors[i] < len(streams[i])])
        instance, item = streams[ring][cursors[ring]]
        cursors[ring] += 1
        merge.push(ring, instance, item)
        reference.push(ring, item)
        assert merge.next == reference.positions()
        assert merge.consumed_instances.value == reference.consumed
        assert merge.skipped_instances.value == reference.skipped
        assert merge.buffered_instances.value == reference.buffered
        for rid in reference.order:
            assert merge.queue_depth(rid) == len(reference.queues[rid])
            assert merge.queue_gauges[rid].value == len(reference.queues[rid])
        assert out == reference.delivered


@given(
    raw=st.lists(stream_strategy, min_size=2, max_size=4),
    m=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_merges_of_different_ring_sets_agree_on_common_messages(raw, m, data):
    """Uniform partial order: two learners subscribed to different sets of
    rings deliver the messages they both deliver in one relative order."""
    streams = build_streams(raw)
    rings = range(len(streams))
    outs = []
    for _ in range(2):
        subset = sorted(data.draw(st.sets(st.sampled_from(rings), min_size=1)))
        out = []
        merge = DeterministicMerge(
            ring_order=subset, m=m, on_deliver=lambda rid, inst, v, out=out: out.append(v.payload)
        )
        for ring in subset:
            for instance, item in streams[ring]:
                merge.push(ring, instance, item)
        outs.append(out)
    common = set(outs[0]) & set(outs[1])
    assert [p for p in outs[0] if p in common] == [p for p in outs[1] if p in common]


@given(
    raw=st.lists(stream_strategy, min_size=2, max_size=4),
    m=st.integers(1, 5),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_a_ring_joined_at_a_cut_keeps_the_order_of_a_merge_that_had_it(raw, m, seed, data):
    """Uniform partial order across a join.

    One merge has every ring from instance 0; the other joins ring ``r`` at
    instance J when it delivers a cut (a message of another ring), behind
    or ahead of its place. The first holds r's messages from J on until it
    delivers the cut, as a learner that had the ring holds a moving group's
    values until the switch. The two deliver the messages they share in one
    relative order.
    """
    import random

    streams = build_streams(raw)
    rings = list(range(len(streams)))
    r = data.draw(st.sampled_from(rings))
    cuts = [
        item.values[0].payload
        for ring in rings if ring != r
        for _, item in streams[ring] if isinstance(item, DataBatch)
    ]
    assume(cuts)
    cut = data.draw(st.sampled_from(cuts))
    starts = [instance for instance, _ in streams[r]]
    starts.append(starts[-1] + streams[r][-1][1].instance_count if starts else 0)
    join_at = data.draw(st.sampled_from(starts))

    had, held = [], []

    def deliver_had(rid, inst, v):
        if rid == r and inst >= join_at and cut not in had:
            held.append(v.payload)
            return
        had.append(v.payload)
        if v.payload == cut:
            had.extend(held)

    joined, deferred = [], []

    def deliver_joined(rid, inst, v):
        joined.append(v.payload)
        if v.payload == cut:
            merge_joined.join(r, join_at)

    merge_had = DeterministicMerge(ring_order=rings, m=m, on_deliver=deliver_had)
    merge_joined = DeterministicMerge(
        ring_order=[rid for rid in rings if rid != r], m=m, on_deliver=deliver_joined
    )
    rng = random.Random(seed)
    cursors = [0] * len(streams)
    while any(cursors[i] < len(streams[i]) for i in rings):
        ring = rng.choice([i for i in rings if cursors[i] < len(streams[i])])
        instance, item = streams[ring][cursors[ring]]
        cursors[ring] += 1
        merge_had.push(ring, instance, item)
        if ring != r:
            merge_joined.push(ring, instance, item)
        elif instance >= join_at:
            deferred.append((instance, item))  # the joined ring learner's stream
        if r in merge_joined.rings:
            while deferred:
                merge_joined.push(r, *deferred.pop(0))
    common = set(had) & set(joined)
    assert [p for p in had if p in common] == [p for p in joined if p in common]
