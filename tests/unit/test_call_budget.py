"""The Python-call budget of the Ring Paxos value path.

Simulated time does not depend on how many Python frames a protocol step
takes, so nothing else in the suite notices when the value path grows a
forwarding frame, a property read or a per-instance closure. This test
counts them.
"""

import sys
from pathlib import Path

import repro
from repro.ringpaxos import build_ring
from repro.sim import Network, Simulator

PACKAGE = str(Path(repro.__file__).resolve().parent)
VALUES = 2000
SIZE = 8192
GAP = SIZE * 8 / 650e6  # 650 Mbit/s offered: below the coordinator's knee


def test_python_calls_per_delivered_value_stay_within_budget():
    """Calls into ``repro`` per value delivered by one In-memory ring.

    The 2 000 multicasts are queued before counting starts, so the count
    is the protocol's own: proposer, coordinator, acceptor, learner,
    network, resources, kernel and metrics. 106.9 calls per value before
    the value path stopped calling to read state (the simulator's probe,
    whether a timer is armed, a value-store lookup), to forward arguments
    (the coordinator's enqueue and decided-log helpers, the acceptor's
    persist lambda) and to re-check what it had just set (the in-memory
    self-accept continuation, the acceptor's GC test, ``Counter.inc``);
    82.8 after. 83.9 since the coordinator computes each instance's value
    ID with one ``value_id_of`` call and the Phase 2A carries it, so the
    acceptors and learners read it instead of deriving it.
    """
    sim = Simulator(seed=1)
    net = Network(sim)
    delivered = []
    ring = build_ring(sim, net, on_deliver=lambda instance, value: delivered.append(value))
    for k in range(VALUES):
        sim.at(k * GAP, ring.proposers[0].multicast, None, SIZE)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    sys.setprofile(count)
    try:
        sim.run(until=VALUES * GAP + 0.05)
    finally:
        sys.setprofile(None)
    assert len(delivered) == VALUES
    assert calls / VALUES <= 90
