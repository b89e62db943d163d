"""Integration: simulations are bit-for-bit deterministic given a seed."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro import MultiRingConfig, MultiRingPaxos
from repro.sim import UniformLoss
from repro.workload import ConstantRate, OpenLoopGenerator

SIZE = 8192
SRC = str(Path(__file__).resolve().parents[2] / "src")


def run_once(seed):
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=2, lambda_rate=2000.0, seed=seed))
    mrp.network.loss = UniformLoss(0.02)
    log = []
    learner = mrp.add_learner(
        groups=[0, 1], on_deliver=lambda g, v: log.append((round(mrp.sim.now, 9), g, v.payload))
    )
    for g in range(2):
        prop = mrp.add_proposer()
        OpenLoopGenerator(
            mrp.sim,
            lambda p=prop, g=g: p.multicast(g, f"g{g}", SIZE),
            ConstantRate(500.0),
            jitter=0.2,
            name=f"gen{g}",
        ).start()
    mrp.run(until=2.0)
    return log, mrp.sim.events_executed


def test_same_seed_reproduces_exactly():
    log_a, events_a = run_once(seed=42)
    log_b, events_b = run_once(seed=42)
    assert events_a == events_b
    assert log_a == log_b
    assert len(log_a) > 100


def test_different_seeds_diverge():
    log_a, _ = run_once(seed=1)
    log_b, _ = run_once(seed=2)
    # Same workload shape, different jitter/loss draws: timings differ.
    assert [t for t, _, _ in log_a] != [t for t, _, _ in log_b]


# One ring, two proposers whose values share batches, the first sender
# alternating: per batch a learner decides, its senders in first-occurrence
# order and the destinations of the SubmitAcks the decision sent (the
# learner decides each batch before the next is submitted).
_TWO_SENDER_BATCHES = """
import json
from repro.obs import ProbeBus
from repro.ringpaxos import build_ring
from repro.sim import Network, Simulator

sim = Simulator(seed=3)
net = Network(sim)
net.attach_probe(bus := ProbeBus())
acks = []
bus.subscribe(
    lambda ev: ev.data["msg"] == "SubmitAck" and acks.append(ev.data["dst"]),
    kind="net.enqueue",
)
ring = build_ring(sim, net, n_proposers=2)
batches = []

def on_decide(instance, batch):
    senders = list(dict.fromkeys(v.sender for v in batch.values))
    batches.append((senders, acks[len(acks) - len(senders):]))

ring.learners[0].on_decide = on_decide
for k in range(6):
    first, second = ring.proposers[::1 if k % 2 == 0 else -1]
    sim.at(0.01 * k, first.multicast, k, 100)
    sim.at(0.01 * k, second.multicast, k, 100)
sim.run(until=0.5)
print(json.dumps(batches))
"""


def test_decided_batch_acks_do_not_depend_on_the_hash_seed():
    runs = []
    for hash_seed in ("0", "7", "11"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": SRC}
        done = subprocess.run(
            [sys.executable, "-c", _TWO_SENDER_BATCHES],
            env=env, capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(done.stdout))
    assert runs[0] == runs[1] == runs[2]
    batches = runs[0]
    assert {tuple(senders) for senders, _ in batches} == {
        ("r0-prop0", "r0-prop1"), ("r0-prop1", "r0-prop0"),
    }
    assert all(acked == senders for senders, acked in batches)
