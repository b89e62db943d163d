"""The paper's qualitative shape assertions, callable from anywhere.

The benchmark suite (``benchmarks/test_fig1_ring_paxos.py``,
``benchmarks/test_fig5_scalability.py``) asserts the qualitative claims
of Figures 1 and 5 against simulator output. The claims live here as
plain functions over the figure row tuples, so a script or a notebook
holding a figure's rows can check them without going through pytest.

Each function raises ``AssertionError`` on the first violated claim and
returns ``None`` on success.
"""

from __future__ import annotations

__all__ = ["assert_figure1_shapes", "assert_figure5_shapes"]


def assert_figure1_shapes(rows) -> None:
    """Figure 1: In-memory is CPU-bound ~700 Mbps, Recoverable disk-bound ~400.

    Rows are ``(mode, offered, delivered, latency_ms, cpu_pct, disk_pct)``
    as produced by :func:`repro.bench.figures.figure1`.
    """
    inmem = [r for r in rows if r[0].startswith("In-memory")]
    disk = [r for r in rows if r[0].startswith("Recoverable")]

    # In-memory: keeps up with offered load until ~700 Mbps...
    for row in inmem:
        if row[1] <= 650:
            assert row[2] >= 0.95 * row[1], f"In-memory under-delivers at {row[1]} Mbps"
    # ...where the coordinator CPU saturates (CPU-bound knee).
    knee = [r for r in inmem if r[1] >= 700]
    assert all(r[4] >= 90.0 for r in knee), "In-memory knee not CPU-bound"
    assert max(r[2] for r in inmem) <= 800.0, "In-memory delivers past the paper's knee"

    # Recoverable: saturates around 400 Mbps, with moderate coordinator
    # CPU (disk-bound) and the disk near 100% at the knee.
    for row in disk:
        if row[1] <= 380:
            assert row[2] >= 0.95 * row[1], f"Recoverable under-delivers at {row[1]} Mbps"
    saturated = [r for r in disk if r[1] >= 420]
    assert all(r[2] <= 450.0 for r in saturated), "Recoverable delivers past the disk bound"
    assert all(r[4] <= 75.0 for r in saturated), "Recoverable knee not disk-bound (~60% CPU)"
    assert all(r[5] >= 90.0 for r in saturated), "Recoverable knee disk not saturated"

    # Latency knee: saturation latency >> low-load latency in both modes.
    assert inmem[-1][3] > 5 * inmem[0][3], "In-memory latency knee missing"
    assert disk[-1][3] > 5 * disk[0][3], "Recoverable latency knee missing"


def assert_figure5_shapes(rows) -> None:
    """Figure 5: M-RP scales linearly in rings; the baselines stay flat.

    Rows are ``(system, n, gbps, msgs_per_s, latency_ms, cpu_pct)`` as
    produced by :func:`repro.bench.figures.figure5`.
    """
    by = lambda name: [r for r in rows if r[0] == name]
    ram, disk = by("RAM M-RP"), by("DISK M-RP")
    ringpaxos, spread, lcr = by("Ring Paxos"), by("Spread"), by("LCR")

    # RAM M-RP scales linearly, exceeding 5 Gbps at 8 rings.
    assert ram[-1][2] > 5.0, "RAM M-RP does not exceed 5 Gbps at 8 rings"
    assert 6.0 <= ram[-1][2] / ram[0][2] <= 10.0, "RAM M-RP scaling not ~linear"
    # DISK M-RP scales linearly too, around 3 Gbps at 8 rings.
    assert 2.5 <= disk[-1][2] <= 3.8, "DISK M-RP not ~3 Gbps at 8 rings"
    assert 6.0 <= disk[-1][2] / disk[0][2] <= 10.0, "DISK M-RP scaling not ~linear"
    # RAM beats DISK at every size (CPU bound ~700 vs disk bound ~400/ring).
    assert all(r[2] > d[2] for r, d in zip(ram, disk)), "DISK M-RP beats RAM M-RP"

    # The three baselines are flat: no growth with nodes/groups/daemons.
    for name, flat in (("Ring Paxos", ringpaxos), ("Spread", spread), ("LCR", lcr)):
        values = [r[2] for r in flat]
        assert max(values) / min(values) < 1.3, f"{name} baseline is not flat"
    # And at 8 partitions Multi-Ring Paxos dominates all of them.
    best_baseline = max(r[2] for r in ringpaxos + spread + lcr)
    assert ram[-1][2] > 3 * best_baseline, "RAM M-RP does not dominate the baselines"
