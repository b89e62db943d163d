"""Figure 5 — Multi-Ring Paxos scalability vs Spread, Ring Paxos, LCR.

Each learner subscribes to a single group. Paper: RAM M-RP and DISK M-RP
scale linearly in the number of rings — peaking above 5 Gbps (RAM) and
around 3 Gbps (DISK) at 8 rings — while Spread, a single Ring Paxos
instance, and LCR stay flat regardless of added daemons/groups/nodes.
The four panels report throughput (Gbps), throughput (msg/s), latency,
and the CPU of the most-loaded node.
"""

from repro.bench import emit
from repro.bench.figures import figure5
from repro.bench.shapes import assert_figure5_shapes


def test_fig5_scalability(benchmark):
    rows, table = benchmark.pedantic(figure5, rounds=1, iterations=1)
    emit("fig5_scalability", table)
    # The paper's qualitative claims live in repro.bench.shapes.
    assert_figure5_shapes(rows)
