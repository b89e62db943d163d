"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper, but measurements of the claims the paper
makes in prose:

* **Skip batching** (Section IV-D): "the cost of executing any number of
  skip instances is the same as the cost of executing a single skip
  instance." Ablation: propose skips one consensus instance each (the
  literal Algorithm 1) and compare coordinator CPU at the same lambda.
* **Decision piggybacking** (Section III-B, Figure 3 step 6): decisions
  ride on the next ip-multicast. Ablation: each decision is its own
  multicast; compare coordinator work per delivered value.
* **Window size**: the coordinator's in-flight instance cap trades
  pipelining (throughput) against queueing (latency).
"""

from repro.bench import emit, format_table
from repro.calibration import DEFAULT_VALUE_SIZE, bytes_per_s_to_mbps, mbps_to_bytes_per_s
from repro.core import SkipManager
from repro.sim import Network, Simulator
from repro.ringpaxos import build_ring
from repro.workload import ConstantRate, OpenLoopGenerator


# ---------------------------------------------------------------------------
# Skip batching
# ---------------------------------------------------------------------------
def run_skip_batching(batch_skips, lambda_rate=9000.0, duration=2.0):
    """An idle ring kept at lambda purely by skips."""
    sim = Simulator(seed=1)
    net = Network(sim)
    ring = build_ring(sim, net)
    manager = SkipManager(
        sim, ring.coordinator, lambda_rate=lambda_rate, delta=1e-3, batch_skips=batch_skips
    )
    sim.run(until=duration)
    cpu = ring.coordinator.node.cpu.busy_time() / duration  # the window opens at 0
    return {
        "mode": "batched" if batch_skips else "one-per-skip",
        "skips": manager.skips_proposed.value,
        "consensus_executions": ring.coordinator.instances_decided.value,
        "coord_cpu_pct": 100.0 * cpu,
    }


def test_ablation_skip_batching(benchmark):
    results = benchmark.pedantic(
        lambda: [run_skip_batching(True), run_skip_batching(False)],
        rounds=1,
        iterations=1,
    )
    batched, unbatched = results
    emit(
        "ablation_skip_batching",
        format_table(
            "Ablation: batched vs one-per-skip consensus executions (idle ring, lambda=9000/s)",
            ["mode", "skips proposed", "consensus executions", "coord CPU %"],
            [
                (r["mode"], r["skips"], r["consensus_executions"], r["coord_cpu_pct"])
                for r in results
            ],
        ),
    )
    # Both achieve the same skip rate...
    assert abs(batched["skips"] - unbatched["skips"]) < 0.2 * batched["skips"]
    # ...but batching collapses consensus executions by ~the batch factor
    assert unbatched["consensus_executions"] > 4 * batched["consensus_executions"]
    # and the literal one-per-skip variant pays real coordinator CPU.
    assert unbatched["coord_cpu_pct"] > 3 * max(1.0, batched["coord_cpu_pct"])


# ---------------------------------------------------------------------------
# Decision piggybacking
# ---------------------------------------------------------------------------
def run_piggyback(piggyback, offered_mbps=500.0, duration=2.0, warmup=1.0):
    sim = Simulator(seed=1)
    net = Network(sim)
    # The flush bound must exceed the inter-2A gap (131 us at 500 Mbps of
    # 8 KB values) or decisions never get the chance to ride a 2A.
    ring = build_ring(
        sim, net, piggyback_decisions=piggyback, decision_flush_timeout=1e-3
    )
    prop = ring.proposers[0]
    rate = mbps_to_bytes_per_s(offered_mbps) / DEFAULT_VALUE_SIZE
    OpenLoopGenerator(
        sim, lambda: prop.multicast(None, DEFAULT_VALUE_SIZE), ConstantRate(rate)
    ).start()
    end = warmup + duration
    sim.run(until=end)
    learner = ring.learners[0]
    coord_nic = net.nic(ring.coordinator.node.name)
    return {
        "mode": "piggybacked" if piggyback else "standalone",
        "delivered_mbps": bytes_per_s_to_mbps(learner.delivered_bytes.value / end),
        "latency_ms": learner.latency.trimmed_mean() * 1e3,
        "coord_msgs_sent": coord_nic.messages_sent,
    }


def test_ablation_decision_piggybacking(benchmark):
    results = benchmark.pedantic(
        lambda: [run_piggyback(True), run_piggyback(False)],
        rounds=1,
        iterations=1,
    )
    piggy, standalone = results
    emit(
        "ablation_decision_piggybacking",
        format_table(
            "Ablation: decision piggybacking vs standalone decision multicasts (500 Mbps)",
            ["mode", "delivered Mbps", "latency ms", "coordinator msgs sent"],
            [
                (r["mode"], r["delivered_mbps"], r["latency_ms"], r["coord_msgs_sent"])
                for r in results
            ],
        ),
    )
    # Throughput unaffected at this load; piggybacking removes most of
    # the standalone decision announcements (one 2A instead of
    # 2A + announce per instance).
    assert abs(piggy["delivered_mbps"] - standalone["delivered_mbps"]) < 25
    assert standalone["coord_msgs_sent"] > 1.3 * piggy["coord_msgs_sent"]
    # And does not hurt latency by more than the flush bound.
    assert piggy["latency_ms"] < standalone["latency_ms"] + 1.0


# ---------------------------------------------------------------------------
# Coordinator window
# ---------------------------------------------------------------------------
def run_window(window, offered_mbps=650.0, duration=2.0, warmup=1.0):
    sim = Simulator(seed=1)
    net = Network(sim)
    ring = build_ring(sim, net, window=window)
    prop = ring.proposers[0]
    rate = mbps_to_bytes_per_s(offered_mbps) / DEFAULT_VALUE_SIZE
    OpenLoopGenerator(
        sim, lambda: prop.multicast(None, DEFAULT_VALUE_SIZE), ConstantRate(rate)
    ).start()
    end = warmup + duration
    sim.run(until=end)
    learner = ring.learners[0]
    return {
        "window": window,
        "delivered_mbps": bytes_per_s_to_mbps(learner.delivered_bytes.value / end),
        "latency_ms": learner.latency.trimmed_mean() * 1e3,
    }


def test_ablation_window(benchmark):
    windows = [1, 4, 32, 128]
    results = benchmark.pedantic(
        lambda: [run_window(w) for w in windows], rounds=1, iterations=1
    )
    emit(
        "ablation_window",
        format_table(
            "Ablation: coordinator in-flight window at 650 Mbps offered",
            ["window", "delivered Mbps", "latency ms"],
            [(r["window"], r["delivered_mbps"], r["latency_ms"]) for r in results],
        ),
    )
    # A window of 1 serializes consensus on the ring RTT and cannot keep
    # up with 650 Mbps; a modest window restores full throughput.
    assert results[0]["delivered_mbps"] < 0.8 * results[2]["delivered_mbps"]
    assert results[2]["delivered_mbps"] > 600
    # Past the knee, bigger windows buy nothing.
    assert abs(results[3]["delivered_mbps"] - results[2]["delivered_mbps"]) < 30
