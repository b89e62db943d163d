"""Probe-emission overhead on the Figure 1 runner.

The oracle probe kinds added for ``repro.check`` (proposer.multicast,
learner.decide, learner.deliver, replica.apply) are emitted from the
hottest protocol paths. The contract is that they are effectively free
unless someone subscribes:

* **bare** — no probe bus attached: every emission site is one attribute
  read plus an ``is not None`` test;
* **bus, no subscriber** — a bus is attached but nothing subscribes:
  every site additionally tests ``kind in bus.subscribers`` (one dict
  membership test, no call) and skips building the event payload
  entirely.

Both must (a) leave the simulation bit-for-bit identical — probes are
passive — and (b) cost ≤5% wall time on the Figure 1 runner. The timing
assertion is deliberately looser (25%) than the contract so a noisy CI
box cannot flake it; the measured ratio is printed for the record and is
~1–2% locally (it was ~7% before the sites were gated, dominated by
kernel ``sim.event`` payload construction).

A third run with the full :class:`SafetyOracles` set subscribed checks
that even *active* oracles never perturb the simulation — they read
events, schedule nothing.

Timing is one local ``time.perf_counter`` interval per configuration
after a warm-up run; the ratios are printed and asserted, and nothing is
written to disk. What whole workloads cost with observers attached is
the repo benchmark's business (``benchmarks/e2e``: the ``obs`` and
``check`` host shares of ``fuzz_faults``).
"""

import time

from repro.bench.runner import run_single_ring_point
from repro.check import SafetyOracles
from repro.obs.probe import ProbeBus
from repro.sim.simulator import observe_simulators


def _fig1_point():
    point = run_single_ring_point(300.0, durable=False)
    return (point.delivered_mbps, point.latency_ms, point.cpu_pct)


def _timed_point():
    start = time.perf_counter()
    result = _fig1_point()
    return result, time.perf_counter() - start


def _watched(attach):
    remove = observe_simulators(attach)
    try:
        return _timed_point()
    finally:
        remove()


def test_probe_bus_without_subscribers_is_free(benchmark):
    def run_all():
        _fig1_point()  # warm-up: evens out allocator/import effects
        bare, bare_s = _timed_point()
        idle, idle_s = _watched(lambda sim: sim.attach_probe(ProbeBus()))
        oracle, oracle_s = _watched(lambda sim: SafetyOracles().attach(sim))
        return bare, bare_s, idle, idle_s, oracle, oracle_s

    bare, bare_s, idle, idle_s, oracle, oracle_s = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )

    # Passivity: neither an idle bus nor subscribed oracles may perturb
    # the simulation at all.
    assert idle == bare
    assert oracle == bare

    ratio = idle_s / bare_s
    print(f"fig1 runner: bare {bare_s:.2f}s, idle bus {idle_s:.2f}s, ratio {ratio:.3f}")
    print(f"fig1 runner: oracles {oracle_s:.2f}s, ratio {oracle_s / bare_s:.3f}")
    assert ratio <= 1.25, f"idle probe bus cost {100 * (ratio - 1):.1f}% on the fig1 runner"
