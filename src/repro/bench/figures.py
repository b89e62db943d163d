"""One callable per paper figure: builds the sweep, returns the rows.

The pytest benchmarks under ``benchmarks/`` call these and assert the
paper's qualitative claims; the CLI (``python -m repro``) calls them
directly. Each returns ``(rows, table_text)`` and the caller decides what
to do with them (print, persist, assert).

Sweep construction is declarative: every figure builds a list of
:class:`~repro.parallel.spec.Spec` task specs (picklable, hashable
descriptions of runner calls) and hands them to
:func:`~repro.parallel.pool.run_sweep`, which executes them under the
process-wide executor configuration — serial and in-process by default
(so direct calls behave exactly like the old loops), fanned out across
worker processes and memoized on disk when the CLI passes ``--jobs`` /
enables the cache. Results always come back in spec order, so the tables
are byte-identical regardless of job count.
"""

from __future__ import annotations

import inspect
from typing import Callable

from ..calibration import DEFAULT_VALUE_SIZE
from ..parallel import Spec, run_sweep
from ..workload.rates import ModulatedRate, ScaledRate, StepRate
from .clients import run_population_point
from .geo import run_geo_placement_point, run_geo_ring_point
from .plots import ascii_multi_series
from .report import format_table, series_to_rows
from .runner import (
    run_coordinator_failure_timeseries,
    run_elasticity_timeseries,
    run_lcr_point,
    run_mencius_point,
    run_multiring_point,
    run_partitioned_single_ring_point,
    run_single_ring_point,
    run_spread_point,
    run_two_ring_parameter_point,
    run_two_ring_timeseries,
)

__all__ = ["FIGURES", "run_figure"]

# ---------------------------------------------------------------------------
# Shared λ-experiment scaffolding (compressed timeline, see EXPERIMENTS.md)
# ---------------------------------------------------------------------------
STEP_SECONDS = 8.0
LAMBDA_DURATION = 5 * STEP_SECONDS
MESSAGE_SIZE = DEFAULT_VALUE_SIZE


def _msgs(mbps: float) -> float:
    return mbps * 1e6 / 8.0 / MESSAGE_SIZE


def _stepped(levels: list[float]) -> StepRate:
    return StepRate([(i * STEP_SECONDS, _msgs(v)) for i, v in enumerate(levels)])


def _point(fn: Callable[..., object], **kwargs) -> Spec:
    """A spec for one call of the module-level ``fn`` (JSON-primitive kwargs)."""
    return Spec(
        fn=f"{fn.__module__}:{fn.__name__}", kwargs=kwargs, label=f"{fn.__name__}:{kwargs}"
    )


def _lambda_case(
    levels: list[float],
    lam: float,
    scale2: float = 1.0,
    modulate: bool = False,
    buffer_limit: int = 200_000,
):
    """One λ-experiment time series, built from primitives.

    Module-level (and primitive-argument) so it is addressable as a spec:
    rate-schedule *objects* never cross the spec boundary — their shape
    parameters do, which keeps specs picklable and content-hashable.
    """
    fast = _stepped(levels)
    slow = _stepped(levels)
    if scale2 != 1.0:
        slow = ScaledRate(slow, scale2)
    if modulate:
        fast = ModulatedRate(fast, amplitude=0.6, period=8.0)
        slow = ModulatedRate(slow, amplitude=0.6, period=8.0)
    return run_two_ring_timeseries(
        (fast, slow), lambda_rate=lam, duration=LAMBDA_DURATION, buffer_limit=buffer_limit
    )


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------
def figure1():
    """In-memory vs Recoverable Ring Paxos (latency vs throughput)."""
    grid = [
        (durable, offered)
        for durable, offered_list in (
            (False, [100, 300, 500, 650, 700, 750]),
            (True, [100, 200, 300, 380, 420, 500]),
        )
        for offered in offered_list
    ]
    specs = [
        _point(run_single_ring_point, offered_mbps=float(offered), durable=durable)
        for durable, offered in grid
    ]
    rows = [
        (r.label, offered, r.delivered_mbps, r.latency_ms, r.cpu_pct,
         r.extra["disk_util_pct"])
        for (durable, offered), r in zip(grid, run_sweep(specs))
    ]
    table = format_table(
        "Figure 1: latency vs delivery throughput per server (single Ring Paxos)",
        ["mode", "offered Mbps", "delivered Mbps", "latency ms", "coord CPU %", "disk %"],
        rows,
    )
    return rows, table


def figure2():
    """Partitioned dummy service over one Ring Paxos instance."""
    ns = (1, 2, 4, 8)
    specs = [_point(run_partitioned_single_ring_point, n_partitions=n) for n in ns]
    rows = [
        (n, r.delivered_mbps, r.extra["per_partition_mbps"], r.cpu_pct)
        for n, r in zip(ns, run_sweep(specs))
    ]
    table = format_table(
        "Figure 2: overall throughput of a partitioned service on one Ring Paxos",
        ["partitions", "overall Mbps", "per-partition Mbps", "coord CPU %"],
        rows,
    )
    return rows, table


def figure5():
    """Scalability: M-RP (RAM/DISK) vs Spread, Ring Paxos, LCR."""
    grid: list[tuple[str, int, Spec]] = []
    for n in (1, 2, 4, 8):
        grid.append(("RAM M-RP", n, _point(run_multiring_point, n_rings=n, durable=False)))
    for n in (1, 2, 4, 8):
        grid.append(("DISK M-RP", n, _point(run_multiring_point, n_rings=n, durable=True)))
    for n in (1, 2, 4, 8):
        grid.append(("Ring Paxos", n, _point(run_partitioned_single_ring_point, n_partitions=n)))
    for n in (1, 2, 4, 8):
        grid.append(("Spread", n, _point(run_spread_point, n_daemons=n)))
    for n in (2, 4, 8, 16):
        grid.append(("LCR", n, _point(run_lcr_point, n_nodes=n)))
    rows = []
    for (system, n, _), r in zip(grid, run_sweep([spec for _, _, spec in grid])):
        msgs = 0.0 if system == "Ring Paxos" else r.msgs_per_s
        rows.append((system, n, r.delivered_mbps / 1e3, msgs, r.latency_ms, r.cpu_pct))
    table = format_table(
        "Figure 5: scalability, one group per learner",
        ["system", "partitions/nodes", "Gbps", "msg/s", "latency ms", "max CPU %"],
        rows,
    )
    return rows, table


def figure6():
    """Every learner subscribes to all groups (ingress-bound)."""
    grid = [(durable, n) for durable in (False, True) for n in (1, 2, 4, 8)]
    specs = [
        _point(run_multiring_point, n_rings=n, durable=durable, subscribe_all=True)
        for durable, n in grid
    ]
    rows = [
        ("DISK M-RP" if durable else "RAM M-RP", n, r.delivered_mbps,
         r.msgs_per_s, r.latency_ms, r.extra["learner_ingress_pct"],
         r.extra["learner_cpu_pct"])
        for (durable, n), r in zip(grid, run_sweep(specs))
    ]
    table = format_table(
        "Figure 6: every learner subscribes to all groups",
        ["system", "rings", "Mbps", "msg/s", "latency ms", "ingress %", "learner CPU %"],
        rows,
    )
    return rows, table


def figure7():
    """The effect of Delta."""
    grid = [
        (delta, offered)
        for delta in (1e-3, 10e-3, 100e-3)
        for offered in (50, 200, 400, 800)
    ]
    specs = [
        _point(run_two_ring_parameter_point,
               offered_mbps_total=float(offered), delta=delta, burst=8)
        for delta, offered in grid
    ]
    rows = [
        (f"{delta * 1e3:g} ms", offered, r.delivered_mbps, r.latency_ms, r.cpu_pct)
        for (delta, offered), r in zip(grid, run_sweep(specs))
    ]
    table = format_table(
        "Figure 7: the effect of Delta (2 rings, learner on both)",
        ["Delta", "offered Mbps", "delivered Mbps", "latency ms", "coord CPU %"],
        rows,
    )
    return rows, table


def figure8():
    """The effect of M."""
    grid = [(m, offered) for m in (1, 10, 100) for offered in (200, 400, 600, 800)]
    specs = [
        _point(run_two_ring_parameter_point,
               offered_mbps_total=float(offered), m=m, burst=1, jitter=0.0)
        for m, offered in grid
    ]
    rows = [
        (m, offered, r.delivered_mbps, r.latency_ms, r.extra["learner_cpu_pct"])
        for (m, offered), r in zip(grid, run_sweep(specs))
    ]
    table = format_table(
        "Figure 8: the effect of M (2 rings, learner on both)",
        ["M", "offered Mbps", "delivered Mbps", "latency ms", "learner CPU %"],
        rows,
    )
    return rows, table


def _series_table(
    title: str, res, names: tuple[str, str], seconds: int, marks: dict | None = None
) -> str:
    """A per-second table of ``res``'s two ring (or group) series, named
    ``names``, and of its delivery, then their sparklines.

    ``marks`` maps a second to the event a last column shows.
    """
    series = {
        names[0]: res.multicast_mbps[0],
        names[1]: res.multicast_mbps[1],
        "delivered Mbps": res.delivered_mbps,
    }
    per_second = [dict((round(t), v) for t, v in s) for s in series.values()]
    rows = [(t, *(f"{s.get(t, 0):.0f}" for s in per_second)) for t in range(seconds)]
    headers = ["t (s)", *series]
    if marks is not None:
        rows = [(*row, marks.get(row[0], "")) for row in rows]
        headers.append("event")
    width = max(map(len, series))
    return format_table(title, headers, rows) + "\n\n" + ascii_multi_series(
        {name.ljust(width): s for name, s in series.items()},
        title="throughput over time (sparklines)",
    )


def _lambda_figure(title: str, lams: tuple[float, ...], levels: list[float], **case_kwargs):
    specs = [_point(_lambda_case, levels=list(levels), lam=lam, **case_kwargs) for lam in lams]
    results = dict(zip(lams, run_sweep(specs)))
    rows = []
    for lam, res in results.items():
        rows.append((f"{lam:g}", "halted" if res.extra["halted"] else "ok", "", ""))
        for t, v in series_to_rows(res.latency_ms, every=4):
            rows.append((f"{lam:g}", f"t={t:g}s", f"lat={v:.2f}ms", ""))
    table = format_table(title, ["lambda", "state/t", "latency", ""], rows)
    table += "\n\n" + ascii_multi_series(
        {f"lambda={lam:g} lat(ms)": res.latency_ms for lam, res in results.items()},
        title="latency over time (sparklines, max-pooled)",
    )
    return results, table


def figure9():
    """Lambda with equal constant rates."""
    return _lambda_figure(
        "Figure 9: lambda with equal constant rates (stepped every 8 s)",
        (0.0, 1000.0, 5000.0),
        [25, 75, 150, 225, 310],
    )


def figure10():
    """Lambda with 2:1 skewed constant rates."""
    return _lambda_figure(
        "Figure 10: lambda with 2:1 skewed constant rates",
        (1000.0, 5000.0, 9000.0),
        [50, 150, 300, 450, 520],
        scale2=0.5,
        buffer_limit=15_000,
    )


def figure11():
    """Lambda with oscillating 2:1 rates."""
    return _lambda_figure(
        "Figure 11: lambda with oscillating 2:1 rates",
        (5000.0, 9000.0, 12000.0),
        [50, 130, 260, 330, 390],
        scale2=0.5,
        modulate=True,
        buffer_limit=15_000,
    )


def figure12():
    """Coordinator failure at t=20 s, restart 3 s later."""
    [res] = run_sweep([
        _point(run_coordinator_failure_timeseries,
               rate_msgs_per_s=4000.0, fail_at=20.0, restart_after=3.0, duration=32.0)
    ])
    return res, _series_table(
        "Figure 12: coordinator of ring 1 fails at t=20s, restarts at t=23s",
        res, ("ring1 recv Mbps", "ring2 recv Mbps"), 32,
    )


def related_mencius():
    """Related work: Mencius vs Multi-Ring Paxos (Section V)."""
    grid: list[tuple[str, int, Spec]] = []
    for n in (2, 4, 8):
        grid.append(("Mencius", n, _point(run_mencius_point, n_servers=n)))
    for n in (2, 4, 8):
        grid.append(("RAM M-RP", n, _point(run_multiring_point, n_rings=n, durable=False)))
    rows = [
        (system, n, r.delivered_mbps / 1e3, r.latency_ms, r.cpu_pct)
        for (system, n, _), r in zip(grid, run_sweep([s for _, _, s in grid]))
    ]
    table = format_table(
        "Related work: Mencius vs Multi-Ring Paxos",
        ["system", "servers/rings", "Gbps", "latency ms", "max CPU %"],
        rows,
    )
    return rows, table


def figure_geo(quick: bool = False):
    """Geo-distribution: the three "Stretching Multi-Ring Paxos" shapes.

    Three sections over the multi-datacenter fabric: stretching one ring
    member across a WAN hop leaves throughput flat (section 1) while
    decision latency tracks the slowest member's RTT wherever it sits in
    the ring (section 2), and the latency-aware in-region ring placement
    beats a ring pinned a hop away (section 3). ``quick=True`` shortens
    the measurement windows for CI smoke runs.
    """
    timing = {"duration": 0.6, "warmup": 0.3} if quick else {}
    stretch_grid = [(far, 0) for far in (0.0, 5.0, 25.0, 50.0)]
    slowest_grid = [(far, pos) for far in (5.0, 25.0, 50.0) for pos in (0, 1)]
    placement_grid = ["local", "remote"]
    specs = (
        [_point(run_geo_ring_point, far_ms=far, far_position=pos, **timing)
         for far, pos in stretch_grid + slowest_grid]
        + [_point(run_geo_placement_point, placement=p, **timing) for p in placement_grid]
    )
    results = run_sweep(specs)
    stretch = results[: len(stretch_grid)]
    slowest = results[len(stretch_grid): len(stretch_grid) + len(slowest_grid)]
    placement = results[len(stretch_grid) + len(slowest_grid):]

    rows = {
        "stretch": [
            (far, r.delivered_mbps, r.latency_ms, r.cpu_pct)
            for (far, _), r in zip(stretch_grid, stretch)
        ],
        "slowest": [
            (far, pos, r.extra["slowest_rtt_ms"], r.latency_ms)
            for (far, pos), r in zip(slowest_grid, slowest)
        ],
        "placement": [
            (p, r.extra["ring_region"], r.delivered_mbps, r.latency_ms)
            for p, r in zip(placement_grid, placement)
        ],
    }
    table = format_table(
        "Geo 1: throughput while stretching one ring member across the WAN",
        ["far one-way ms", "delivered Mbps", "latency ms", "coord CPU %"],
        rows["stretch"],
    )
    table += "\n\n" + format_table(
        "Geo 2: decision latency tracks the slowest member's WAN RTT",
        ["far one-way ms", "ring position", "slowest RTT ms", "latency ms"],
        rows["slowest"],
    )
    table += "\n\n" + format_table(
        "Geo 3: in-region vs cross-region ring placement (25 ms WAN)",
        ["placement", "ring region", "delivered Mbps", "latency ms"],
        rows["placement"],
    )
    return rows, table


def figure_clients(quick: bool = False):
    """Client populations: latency CDFs vs population size, skew, overload.

    Section 1 sweeps flyweight population size (10k to 1M sessions) and
    key skew (uniform vs Zipf 1.1) at a fixed total offered rate: p50/
    p99/p999 end-to-end latency stays flat because simulation (and
    service) cost scales with the request rate, not the session count.
    Section 2 drives an overloaded, admission-controlled deployment
    through a coordinator outage: intake sheds and delays bound the
    queues, timed-out sessions retry and fail over, and the tail (p999)
    absorbs the outage instead of the system queueing unboundedly.
    Section 3 prints the full latency CDF per scenario. ``quick=True``
    shortens windows for CI smoke runs (the 1M-session scenario stays).
    """
    rate = 3000.0
    if quick:
        sizes, timing = [10_000, 1_000_000], {"duration": 0.4, "warmup": 0.1}
        crash = {"crash_coordinator_at": 0.25, "restart_coordinator_at": 0.40}
    else:
        sizes, timing = [10_000, 100_000, 1_000_000], {"duration": 1.0, "warmup": 0.2}
        crash = {"crash_coordinator_at": 0.45, "restart_coordinator_at": 0.70}
    skews = [0.0, 1.1]
    sweep_grid = [(n, s) for n in sizes for s in skews]
    specs = [
        _point(run_population_point, n_sessions=n, rate=rate, zipf_s=s, **timing)
        for n, s in sweep_grid
    ]
    specs.append(_point(
        run_population_point, n_sessions=200_000, rate=4000.0,
        admission_inflight=64, admission_queue=128,
        label="overload + coordinator outage", **crash, **timing,
    ))
    results = run_sweep(specs)
    sweep, overload = results[:-1], results[-1]

    rows = {
        "sweep": [
            (f"{n:,}", s, int(rate), round(r.msgs_per_s, 1),
             round(r.extra["p50_ms"], 3), round(r.extra["p99_ms"], 3),
             round(r.extra["p999_ms"], 3))
            for (n, s), r in zip(sweep_grid, sweep)
        ],
        "overload": [
            (overload.label, round(overload.msgs_per_s, 1),
             round(overload.extra["p50_ms"], 3), round(overload.extra["p999_ms"], 3),
             int(overload.extra["timeouts"]), int(overload.extra["retries"]),
             int(overload.extra["delayed"]), int(overload.extra["shed"]),
             int(overload.extra["abandoned"]))
        ],
        "cdf": [
            (r.label, *(round(v, 3) for v, _ in r.extra["cdf_ms"]))
            for r in results
        ],
    }
    table = format_table(
        "Clients 1: end-to-end latency vs population size and key skew "
        f"({int(rate)} req/s offered)",
        ["sessions", "zipf s", "offered req/s", "completed/s",
         "p50 ms", "p99 ms", "p999 ms"],
        rows["sweep"],
    )
    table += "\n\n" + format_table(
        "Clients 2: overload + coordinator outage under admission control",
        ["scenario", "completed/s", "p50 ms", "p999 ms", "timeouts",
         "retries", "delayed", "shed", "abandoned"],
        rows["overload"],
    )
    table += "\n\n" + format_table(
        "Clients 3: latency CDF per scenario (ms at each cumulative decile)",
        ["scenario"] + [f"{10 * (i + 1)}%" for i in range(10)],
        rows["cdf"],
    )
    return rows, table


def figure_elasticity(quick: bool = False):
    """Elasticity: throughput through a live remap and a ring split.

    Two groups each sustain a steady closed-loop load. At ``remap_at``
    the reconfiguration manager moves group 1 from ring 1 onto ring 0
    (hold, drain, join and switch cuts, seq handoff) while traffic keeps
    flowing; at ``split_at`` the now-doubled ring 0 is split, deploying a fresh
    ring mid-run and moving group 1 onto it. The table and sparklines
    show per-group and total delivered throughput staying up across
    both epoch changes; the annotations report when each operation
    committed. ``quick=True`` shortens the run for CI smoke runs.
    """
    timing = (
        {"duration": 8.0, "remap_at": 2.0, "split_at": 5.0}
        if quick else
        {"duration": 40.0, "remap_at": 10.0, "split_at": 25.0}
    )
    [res] = run_sweep([
        _point(run_elasticity_timeseries, rate_msgs_per_s=3000.0, **timing)
    ])
    marks = {
        round(timing["remap_at"]): "remap group 1 -> ring 0",
        round(timing["split_at"]): "split ring 0",
    }
    table = _series_table(
        "Elasticity: live group remap at "
        f"t={timing['remap_at']:.0f}s, ring split at t={timing['split_at']:.0f}s",
        res, ("group0 Mbps", "group1 Mbps"), int(timing["duration"]), marks,
    )
    table += (
        f"\n\nremap committed at t={res.extra['remap_done_at']:.3f}s"
        f" (triggered t={res.extra['remap_at']:.1f}s);"
        f" split deployed ring {res.extra['split_new_ring']}"
        f" (final epoch {res.extra['final_epoch']})"
    )
    return res, table


FIGURES = {
    "fig1": figure1,
    "fig2": figure2,
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "fig11": figure11,
    "fig12": figure12,
    "mencius": related_mencius,
    "geo": figure_geo,
    "clients": figure_clients,
    "elasticity": figure_elasticity,
}


def run_figure(name: str, quick: bool = False):
    """Run one named figure; returns (data, table_text).

    ``quick=True`` shortens measurement windows on figures that support
    it (those taking a ``quick`` keyword); others run at full size.
    """
    try:
        fn = FIGURES[name]
    except KeyError:
        raise KeyError(
            f"unknown figure {name!r}; available: {', '.join(sorted(FIGURES))}"
        ) from None
    if quick and "quick" in inspect.signature(fn).parameters:
        return fn(quick=True)
    return fn()
