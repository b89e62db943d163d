"""Model-vs-sim cross-validation: every predicted quantity, checked.

``repro validate`` runs a small set of simulator measurements and
compares each against the analytic model's closed-form prediction with
a per-quantity tolerance band:

* Figure 1 saturation throughput, both modes (tolerance 10%) and the
  In-memory/Recoverable crossover ratio — the model must name the same
  bottleneck the simulator saturates;
* Figure 5 multi-ring scaling at several ring counts (10%);
* response time below saturation (40% — an M/M/1 waiting term against
  a deterministic-service simulator is shape-accurate, not exact);
* geo stretch latency, base + slowest-member RTT (15%);
* the Figure 6 learner-ingress ceiling (15% — the model charges no
  repair traffic to the link; since a learner repairs only an overdue
  instance there is none at this ceiling, and the error is under 1 %);
* the coordinator CPU and disk busy fractions that the Figure 1 runner
  measures at the Recoverable knee against the model's utilization
  vector (10%).

Tolerances are deliberately asymmetric with the figures' own assertion
bands: a model drifting past them fails CI before the figures do.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from ..bench.geo import STRETCH_ACCEPTORS, STRETCH_OFFERED_MBPS, run_geo_ring_point
from ..bench.runner import run_multiring_point, run_single_ring_point
from ..calibration import DISK_BANDWIDTH_BYTES_PER_S
from .analytic import MultiRingModel, RingModel

__all__ = ["Check", "run_checks", "format_report", "validate_main", "measure_saturation_mbps"]


@dataclass(frozen=True, slots=True)
class Check:
    """One predicted-vs-measured comparison with its tolerance band."""

    name: str
    predicted: float
    measured: float
    tolerance: float  # allowed |predicted - measured| / measured
    unit: str = ""

    @property
    def rel_err(self) -> float:
        if self.measured == 0.0:
            return 0.0 if self.predicted == 0.0 else float("inf")
        return abs(self.predicted - self.measured) / abs(self.measured)

    @property
    def ok(self) -> bool:
        return self.rel_err <= self.tolerance


# ---------------------------------------------------------------------------
# Simulator-side measurements
# ---------------------------------------------------------------------------
def measure_saturation_mbps(
    durable: bool,
    duration: float = 1.0,
    warmup: float = 0.5,
    disk_bandwidth: float = DISK_BANDWIDTH_BYTES_PER_S,
) -> float:
    """Measured delivery rate of one ring driven well past saturation.

    Also the simulator side of the calibration-perturbation property
    tests: ``disk_bandwidth`` overrides the acceptors' disk exactly like
    ``Calibration.with_overrides`` does on the model side.
    """
    return run_single_ring_point(
        900.0, durable=durable, duration=duration, warmup=warmup, disk_bandwidth=disk_bandwidth
    ).delivered_mbps


# ---------------------------------------------------------------------------
# The check suite
# ---------------------------------------------------------------------------
def run_checks(quick: bool = False) -> list[Check]:
    """Run every model-vs-sim cross-check; returns the comparison list.

    ``quick`` shortens measurement windows and drops the most expensive
    points (CI smoke); the full suite adds ``n = 4`` scaling and the
    Figure 6 subscribe-all ingress point.
    """

    duration, warmup = (0.5, 0.25) if quick else (1.0, 0.5)
    checks: list[Check] = []

    # Figure 1: saturation throughput and the mode crossover. Figure 1's
    # runner drives a plain single ring (no Multi-Ring skips): λ = 0.
    ram_model = RingModel(lambda_rate=0.0)
    disk_model = RingModel(durable=True, lambda_rate=0.0)
    ram_sat = measure_saturation_mbps(False, duration, warmup)
    disk_sat = measure_saturation_mbps(True, duration, warmup)
    checks.append(Check("fig1.saturation.in_memory",
                        ram_model.saturation_mbps, ram_sat, 0.10, "Mbps"))
    checks.append(Check("fig1.saturation.recoverable",
                        disk_model.saturation_mbps, disk_sat, 0.10, "Mbps"))
    checks.append(Check("fig1.crossover.ratio",
                        ram_model.saturation_mbps / disk_model.saturation_mbps,
                        ram_sat / disk_sat, 0.10, "x"))

    # Figure 5: aggregate throughput scales linearly in rings (λ = 9000,
    # matching the runner's Multi-Ring defaults).
    ring = RingModel()
    for n in (1, 2) if quick else (1, 2, 4):
        measured = run_multiring_point(
            n_rings=n, durable=False, duration=duration, warmup=warmup
        ).delivered_mbps
        predicted = MultiRingModel(ring, n).aggregate_saturation_mbps()
        checks.append(Check(f"fig5.scaling.{n}rings", predicted, measured, 0.10, "Mbps"))

    # Response time below saturation (M/M/1 waiting on deterministic
    # service: shape-accurate only — hence the wide band).
    point = run_single_ring_point(300.0, durable=False, duration=duration, warmup=warmup)
    checks.append(Check("latency.response_time.300mbps",
                        ram_model.response_time_s(300.0) * 1e3,
                        point.latency_ms, 0.40, "ms"))

    # Geo stretch: base + slowest-member RTT (one of the stretch ring's
    # acceptors 25 ms one-way out).
    geo_model = RingModel(ring_size=STRETCH_ACCEPTORS, lambda_rate=0.0, member_rtts=(0.050,))
    geo = run_geo_ring_point(far_ms=25.0, duration=duration, warmup=warmup)
    checks.append(Check("geo.stretch.latency.25ms",
                        geo_model.response_time_s(STRETCH_OFFERED_MBPS) * 1e3,
                        geo.latency_ms, 0.15, "ms"))

    # Utilization vector at the Recoverable knee, from the Figure 1
    # runner's windows: the model must apportion busy time like the sim.
    knee = run_single_ring_point(500.0, durable=True, duration=duration, warmup=warmup)
    predicted_util = disk_model.utilization(500.0)
    checks.append(Check("utilization.coordinator_cpu",
                        predicted_util["coordinator.cpu"],
                        knee.cpu_pct / 100.0, 0.10, "frac"))
    checks.append(Check("utilization.acceptor_disk",
                        predicted_util["acceptor.disk"],
                        knee.extra["disk_util_pct"] / 100.0, 0.10, "frac"))

    if not quick:
        # Figure 6: subscribe-all learner hits its ingress ceiling. The
        # model charges no repair traffic to the link: 15%.
        sub = run_multiring_point(
            n_rings=4, durable=False, subscribe_all=True,
            duration=duration, warmup=warmup,
        ).delivered_mbps
        predicted = MultiRingModel(ring, 4).aggregate_saturation_mbps(subscribe_all=True)
        checks.append(Check("fig6.ingress_ceiling.4rings", predicted, sub, 0.15, "Mbps"))

    return checks


def format_report(checks: list[Check]) -> str:
    lines = ["model-vs-sim validation"]
    lines.append(
        f"{'check':<34s} {'predicted':>12s} {'measured':>12s} "
        f"{'err %':>7s} {'tol %':>6s}  verdict"
    )
    for c in checks:
        lines.append(
            f"{c.name:<34s} {c.predicted:>12.3f} {c.measured:>12.3f} "
            f"{c.rel_err * 100:>7.2f} {c.tolerance * 100:>6.0f}  "
            f"{'ok' if c.ok else 'FAIL'} {c.unit}"
        )
    failed = [c for c in checks if not c.ok]
    lines.append(
        f"{len(checks) - len(failed)}/{len(checks)} checks within tolerance"
        + (f"; FAILED: {', '.join(c.name for c in failed)}" if failed else "")
    )
    return "\n".join(lines)


def validate_main(argv: list[str] | None = None) -> int:
    """CLI entry point for ``repro validate``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro validate",
        description="Cross-check the analytic model against simulator output.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="shorter windows, fewer points (CI smoke)")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the checks as a JSON report")
    args = parser.parse_args(argv)

    checks = run_checks(quick=args.quick)
    print(format_report(checks))
    if args.json:
        report = {
            "quick": args.quick,
            "checks": [
                {**asdict(c), "rel_err": c.rel_err, "ok": c.ok} for c in checks
            ],
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if all(c.ok for c in checks) else 1
