"""Unit tests for the analytic model: arithmetic, tolerance bands.

The model-vs-sim tolerance-band tests run the same check suite
``repro validate --quick`` runs in CI — one simulation pass, asserted
per predicted quantity so a drifting prediction names itself. The
property tests perturb a calibration constant on both sides (model
``Calibration.with_overrides`` vs simulator ``build_ring`` knob) and
require the predictions to move together.
"""

import pytest

from repro.calibration import DISK_BANDWIDTH_BYTES_PER_S
from repro.model.analytic import Calibration, MultiRingModel, RingModel
from repro.model.capacity import capacity_table
from repro.model.validate import Check, measure_saturation_mbps, run_checks


# ---------------------------------------------------------------------------
# Pure arithmetic
# ---------------------------------------------------------------------------
def test_bottleneck_crossover_between_modes():
    # The Figure 1 story in closed form: In-memory is coordinator-CPU
    # bound, Recoverable is acceptor-disk bound, and durability costs
    # capacity.
    ram, disk = RingModel(), RingModel(durable=True)
    assert ram.bottleneck() == "coordinator.cpu"
    assert disk.bottleneck() == "acceptor.disk"
    assert disk.saturation_mbps < ram.saturation_mbps


def test_delivered_and_utilization_clip_at_saturation():
    ring = RingModel()
    sat = ring.saturation_mbps
    assert ring.delivered_mbps(sat / 2) == pytest.approx(sat / 2)
    assert ring.delivered_mbps(2 * sat) == pytest.approx(sat)
    assert all(0.0 <= u <= 1.0 for u in ring.utilization(2 * sat).values())
    assert ring.utilization(2 * sat)[ring.bottleneck()] == pytest.approx(1.0)


def test_response_time_diverges_toward_saturation():
    ring = RingModel()
    base = ring.base_latency_s()
    low = ring.response_time_s(0.2 * ring.saturation_mbps)
    high = ring.response_time_s(0.95 * ring.saturation_mbps)
    assert base < low < high
    assert ring.response_time_s(2 * ring.saturation_mbps) == float("inf")


def test_skip_rate_follows_lambda_and_delta():
    assert RingModel(lambda_rate=0.0).skip_rate == 0.0
    assert RingModel(delta=1e-3).skip_rate == pytest.approx(1000.0)
    # Skip traffic costs the coordinator capacity: λ=0 saturates higher.
    assert RingModel(lambda_rate=0.0).saturation_mbps > RingModel().saturation_mbps


def test_wan_member_rtt_adds_to_base_latency():
    local = RingModel(ring_size=3)
    stretched = RingModel(ring_size=3, member_rtts=(0.050,))
    assert stretched.base_latency_s() == pytest.approx(local.base_latency_s() + 0.050)


def test_multi_ring_aggregate_and_ingress_ceiling():
    mrp = MultiRingModel(RingModel(), 8)
    # One learner per group: linear scaling, nothing new binds.
    assert mrp.aggregate_saturation_mbps() == pytest.approx(8 * mrp.ring.saturation_mbps)
    # Subscribe-all: the learner ingress link caps the aggregate below
    # the 8-ring total (the Figure 6 ceiling).
    capped = mrp.aggregate_saturation_mbps(subscribe_all=True)
    assert capped < mrp.aggregate_saturation_mbps()
    assert mrp.bottleneck(subscribe_all=True) == "learner.nic.rx"


def test_capacity_table_renders_and_flags_infeasible_demand():
    table = capacity_table(64, durable=True, clients=1_000_000, client_rate=3.0)
    assert "bottleneck: acceptor.disk" in table
    assert "INFEASIBLE" in table
    feasible = capacity_table(64, clients=100_000, client_rate=3.0)
    assert "INFEASIBLE" not in feasible
    assert "headroom" in feasible


# ---------------------------------------------------------------------------
# Model-vs-sim tolerance bands (one quick validation pass, asserted
# per predicted quantity)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def quick_checks():
    return {c.name: c for c in run_checks(quick=True)}


@pytest.mark.parametrize("name", [
    "fig1.saturation.in_memory",
    "fig1.saturation.recoverable",
    "fig1.crossover.ratio",
    "fig5.scaling.1rings",
    "fig5.scaling.2rings",
    "latency.response_time.300mbps",
    "geo.stretch.latency.25ms",
    "utilization.coordinator_cpu",
    "utilization.acceptor_disk",
])
def test_prediction_within_tolerance_band(quick_checks, name):
    check = quick_checks[name]
    assert check.ok, (
        f"{name}: predicted {check.predicted:.3f} vs measured "
        f"{check.measured:.3f} ({check.rel_err * 100:.1f}% > "
        f"{check.tolerance * 100:.0f}% tolerance)"
    )


def test_check_rel_err_and_ok():
    assert Check("x", 110.0, 100.0, 0.10).ok
    assert not Check("x", 111.0, 100.0, 0.10).ok
    assert Check("x", 0.0, 0.0, 0.10).rel_err == 0.0
    assert Check("x", 1.0, 0.0, 0.10).rel_err == float("inf")


# ---------------------------------------------------------------------------
# Calibration-perturbation property: model and sim move together
# ---------------------------------------------------------------------------
def test_disk_bandwidth_perturbation_moves_model_and_sim_together():
    def model_sat(bw: float) -> float:
        cal = Calibration().with_overrides(disk_bandwidth=bw)
        return RingModel(cal, durable=True, lambda_rate=0.0).saturation_mbps

    def sim_sat(bw: float) -> float:
        return measure_saturation_mbps(
            True, duration=0.4, warmup=0.2, disk_bandwidth=bw
        )

    base = DISK_BANDWIDTH_BYTES_PER_S
    for perturbed in (base / 2, base * 2):
        m_ratio = model_sat(perturbed) / model_sat(base)
        s_ratio = sim_sat(perturbed) / sim_sat(base)
        # Same direction...
        assert (m_ratio - 1.0) * (s_ratio - 1.0) > 0.0
        # ...and the same magnitude within the saturation tolerance.
        assert m_ratio / s_ratio == pytest.approx(1.0, rel=0.10)
