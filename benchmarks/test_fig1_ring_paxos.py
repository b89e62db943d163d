"""Figure 1 — In-memory vs Recoverable Ring Paxos (single ring).

Paper: In-memory Ring Paxos is CPU-bound at the coordinator, saturating
around 700 Mbps with the coordinator at ~97% CPU; Recoverable Ring Paxos
is bounded by the acceptors' disk bandwidth around 400 Mbps, with the
coordinator at only ~60% CPU. Latency stays low until each knee, then
rises sharply.
"""

from repro.bench import emit
from repro.bench.figures import figure1
from repro.bench.shapes import assert_figure1_shapes


def test_fig1_ring_paxos(benchmark):
    rows, table = benchmark.pedantic(figure1, rounds=1, iterations=1)
    emit("fig1_ring_paxos", table)
    # The paper's qualitative claims live in repro.bench.shapes.
    assert_figure1_shapes(rows)
