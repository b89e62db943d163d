"""Golden-trace regression: the kernel fast path must not change results.

Records the full observable outcome of four fixed-seed scenarios — every
``net.deliver`` (message handed to a node), ``net.drop`` (a leg lost or
cut), ``learner.decide`` (ring order) and ``learner.deliver`` (merged
order) event — and compares the sequence *bit for bit* against a
committed fixture. The remap fixture was last recorded when the
reconfiguration manager became a client of the rings: it now runs on a
node of its own, so its holds, releases and their replies, its cut
Submits and their acks are network messages the trace records, and each
step waits for the reply before it instead of calling into a proposer or
coordinator; a cut can land at another instance, and no skip
manager re-anchors its rate window at the join. The three-region fixture
was last recorded when a learner's restart catch-up became its gap
repair (which asks for the next run as each reply arrives) and skip
targets began to carry their fraction from one Δ to the next; the other
two, when proposers and learners began to resend only what is overdue, a
protocol change that removed Submit retransmissions and repair requests
for values that were only in flight. The kernel changed none of these,
and the code before each change reproduces the earlier fixtures exactly.
Those pinned the kernel: the
two single-switch ones were recorded before the fast-path kernel (fused
run loop, allocation-free scheduling, coalesced multicast fan-out)
landed, so a pass meant the optimized kernel reproduced the exact
delivery and decision order of the reference implementation, timestamps
included; the three-region one while ``GeoNetwork`` still had its own
``send`` / ``multicast``, pinning the WAN path (per-region crossings,
jitter clamping, a cut link) the same way; and the remap one before the
merge's round-robin walk was rewritten as an order on
``(instance // M, ring)``, pinning its joins, skips and turns across two
live group moves.

Regenerate the fixture only for a *deliberate* semantic change::

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest tests/integration/test_golden_trace.py

and say why in the commit message.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.check import oracle_watch
from repro.core.config import MultiRingConfig
from repro.core.deployment import MultiRingPaxos
from repro.obs.probe import ProbeBus
from repro.ringpaxos.builder import build_ring
from repro.sim.loss import UniformLoss
from repro.sim.network import Network
from repro.sim.simulator import Simulator
from repro.sim.topology import GeoNetwork, Topology, WanLink
from repro.workload import ConstantRate, OpenLoopGenerator

FIXTURE = Path(__file__).parent / "golden" / "golden_traces.json"
MESSAGE_SIZE = 8192


@pytest.fixture(autouse=True)
def safety_oracles():
    # Overrides the package conftest's autouse oracle watch: this module
    # attaches oracles explicitly, so it can record the same scenario both
    # bare and oracle-watched and assert the traces are identical.
    yield None


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------
def _subscribe(sim, network) -> list:
    """Record normalized (net.deliver | net.drop | learner.*) events from a run."""
    bus = sim.probe
    if bus is None:
        bus = ProbeBus()
        sim.attach_probe(bus)
    if network.probe is None:
        network.probe = bus

    records: list = []

    def on_net_deliver(ev) -> None:
        d = ev.data
        records.append(
            [ev.time, "net.deliver", ev.source, d["src"], d["port"], d["msg"], d["size"]]
        )

    def on_net_drop(ev) -> None:
        d = ev.data
        records.append(
            [ev.time, "net.drop", ev.source, d["dst"], d["port"], d["msg"], d["size"]]
        )

    def on_decide(ev) -> None:
        d = ev.data
        records.append(
            [ev.time, "learner.decide", ev.source, d["ring"], d["instance"],
             d["count"], d["item"]]
        )

    def on_deliver(ev) -> None:
        d = ev.data
        records.append(
            [ev.time, "learner.deliver", ev.source, d["group"], d["sender"],
             d["seq"], d["ring"], d["instance"]]
        )

    bus.subscribe(on_net_deliver, kind="net.deliver")
    bus.subscribe(on_net_drop, kind="net.drop")
    bus.subscribe(on_decide, kind="learner.decide")
    bus.subscribe(on_deliver, kind="learner.deliver")
    return records


def scenario_fig1(make_network=Network) -> list:
    """Single In-memory ring under open-loop load (Figure 1 shape)."""
    sim = Simulator(seed=11)
    net = make_network(sim)
    ring = build_ring(sim, net, durable=False)
    records = _subscribe(sim, net)
    prop = ring.proposers[0]
    rate = 100e6 / 8.0 / MESSAGE_SIZE  # 100 Mbps of 8 KiB values
    OpenLoopGenerator(
        sim, lambda: prop.multicast(None, MESSAGE_SIZE), ConstantRate(rate),
        jitter=0.2, name="golden",
    ).start()
    sim.run(until=0.35)
    return records


def scenario_three_rings(topology=None) -> list:
    """Three rings, one merging learner + one single-group learner."""
    mrp = MultiRingPaxos(
        MultiRingConfig(n_groups=3, lambda_rate=2000.0, seed=7, topology=topology)
    )
    sim = mrp.sim
    records = _subscribe(sim, mrp.network)
    mrp.add_learner(groups=[0, 1, 2])
    mrp.add_learner(groups=[1])
    for g in range(3):
        prop = mrp.add_proposer()
        OpenLoopGenerator(
            sim,
            lambda p=prop, g=g: p.multicast(g, f"g{g}", 4096),
            ConstantRate(400.0),
            jitter=0.25,
            name=f"golden{g}",
        ).start()
    mrp.run(until=0.6)
    return records


def scenario_three_regions() -> list:
    """Three rings in three regions: jittered WAN links, lossy legs, one cut.

    Every learner hears at least one remote ring (each 2A / decision
    multicast crosses one or two WAN links once, beside its in-region
    fan-in) and every proposer submits across a link (unicast both ways),
    so the WAN path carries most of the trace. The eu-us link is cut for
    150 ms mid-run with frames queued toward it.
    """
    topology = Topology(
        ["eu", "us", "ap"],
        links={("eu", "us"): WanLink(0.004, jitter=0.001)},
        wan_latency=0.009,
        wan_jitter=0.003,
    )
    mrp = MultiRingPaxos(
        MultiRingConfig(
            n_groups=3, lambda_rate=2000.0, seed=23, topology=topology,
            group_regions=["eu", "us", "ap"],
        )
    )
    sim, net = mrp.sim, mrp.network
    net.loss = UniformLoss(0.01)
    records = _subscribe(sim, net)
    mrp.add_learner(groups=[0, 1, 2])  # eu
    mrp.add_learner(groups=[1, 2])  # us
    mrp.add_learner(groups=[2, 0], region="ap")
    for g, region in enumerate(["us", "ap", "eu"]):
        prop = mrp.add_proposer(region=region)
        OpenLoopGenerator(
            sim,
            lambda p=prop, g=g: p.multicast(g, f"g{g}", 4096),
            ConstantRate(300.0),
            jitter=0.25,
            name=f"golden-geo{g}",
        ).start()
    sim.at(0.25, net.partition_wan, "eu", "us")
    sim.at(0.40, net.heal_wan, "eu", "us")
    mrp.run(until=0.7)
    return records


def scenario_merge_remap() -> list:
    """Three rings at M = 3, learners with different ring sets, two remaps.

    Group 0 has two senders of 16 KiB values, so ring 0 runs ahead of the
    skip rate while rings 1 and 2 advance mostly by skips and the merges
    wait on them. Group 2 then moves onto ring 0 and group 1 onto ring 2.
    A learner new to the destination ring joins it ahead of its merge's
    place in both moves (J = 242, place 102; J = 221, place 216), so the
    gap is read as skips; a ring joined behind the place is
    test_core_groups_merge.py's.
    """
    mrp = MultiRingPaxos(MultiRingConfig(n_groups=3, lambda_rate=600.0, m=3, seed=31))
    sim = mrp.sim
    records = _subscribe(sim, mrp.network)
    for groups in ([0, 1, 2], [1, 2], [2], [0, 1]):
        mrp.add_learner(groups=groups)
    senders = ((0, 900.0, 16384), (0, 700.0, 16384), (1, 60.0, 2048), (2, 220.0, 2048))
    for g, rate, size in senders:
        prop = mrp.add_proposer()
        OpenLoopGenerator(
            sim,
            lambda p=prop, g=g, size=size: p.multicast(g, f"g{g}", size),
            ConstantRate(rate),
            jitter=0.25,
            name=f"golden-remap-{prop.node.name}",
        ).start()
    sim.at(0.15, mrp.reconfig.remap_group, 2, 0)
    sim.at(0.35, mrp.reconfig.remap_group, 1, 2)
    mrp.run(until=0.6)
    return records


SCENARIOS = {
    "fig1_single_ring": scenario_fig1,
    "merge_remap": scenario_merge_remap,
    "three_rings": scenario_three_rings,
    "three_regions": scenario_three_regions,
}


# ---------------------------------------------------------------------------
# Fixture plumbing
# ---------------------------------------------------------------------------
def _digest(records: list) -> dict:
    payload = json.dumps(records, separators=(",", ":"))
    return {
        "count": len(records),
        "sha256": hashlib.sha256(payload.encode()).hexdigest(),
        "head": records[:8],
        "tail": records[-4:],
    }


def _check_against_fixture(name: str, records: list) -> None:
    digest = _digest(records)
    if os.environ.get("GOLDEN_REGEN"):
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        data = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
        data[name] = digest
        FIXTURE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated golden fixture for {name}")
    assert FIXTURE.exists(), (
        f"golden fixture missing: {FIXTURE}. Record it on a known-good tree with "
        f"GOLDEN_REGEN=1."
    )
    golden = json.loads(FIXTURE.read_text())[name]
    # JSON round-trip the recording so tuples/lists compare canonically.
    records = json.loads(json.dumps(records, separators=(",", ":")))
    assert digest["count"] == golden["count"], (
        f"{name}: event count changed {golden['count']} -> {digest['count']}; "
        f"first recorded events: {records[:5]}"
    )
    if digest["sha256"] != golden["sha256"]:
        divergence = next(
            (i for i, (a, b) in enumerate(zip(records, golden["head"])) if a != b),
            None,
        )
        raise AssertionError(
            f"{name}: trace hash changed (count unchanged at {digest['count']}). "
            f"First divergence within the recorded head: index {divergence}: "
            f"got {records[divergence] if divergence is not None else '(beyond head)'} "
            f"expected {golden['head'][divergence] if divergence is not None else '?'}"
        )


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_golden_fixture(name):
    _check_against_fixture(name, SCENARIOS[name]())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_identical_under_oracle_watch(name):
    # Oracles subscribe to the same probe bus; they must be passive — the
    # recorded trace (timestamps included) cannot move by a single bit.
    bare = SCENARIOS[name]()
    with oracle_watch() as oracles:
        watched = SCENARIOS[name]()
    assert [o.events_checked for o in oracles] and sum(o.events_checked for o in oracles) > 0
    assert watched == bare


def test_repeat_run_is_bit_identical():
    # The recorder itself is deterministic: two fresh runs, same records.
    assert scenario_fig1() == scenario_fig1()


def test_one_region_geo_network_trace_is_byte_identical():
    # The degenerate one-region GeoNetwork must take the base Network's
    # code paths with the same random draws in the same order: the same
    # scenario on both fabrics yields bit-for-bit identical traces, and
    # the geo trace matches the committed golden fixture directly.
    geo = scenario_fig1(lambda sim: GeoNetwork(sim, Topology.single()))
    assert geo == scenario_fig1()
    _check_against_fixture("fig1_single_ring", geo)


def test_one_region_geo_deployment_trace_is_byte_identical():
    # Same equivalence through the full deployment layer: a MultiRingPaxos
    # configured with the one-region topology (GeoNetwork + placement)
    # reproduces the plain deployment's trace exactly.
    geo = scenario_three_rings(topology=Topology.single())
    assert geo == scenario_three_rings()
    _check_against_fixture("three_rings", geo)
