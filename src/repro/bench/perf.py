"""Wall-clock performance harness: measure the simulator, not the protocol.

Every simulated result in this repository is wall-clock independent — but
how many *simulated* events the kernel retires per *real* second decides
how large a figure (rings x learners x seconds) and how many fuzz
schedules per CI minute are affordable. This module gives that number a
trajectory:

* a small suite of wall-clock benchmarks (kernel events/sec microbench,
  the Figure 1 runner, a scaled Figure 5 multi-ring runner, a bounded
  fuzz round);
* a JSON report, ``BENCH_perf.json`` at the repo root, carrying the
  current numbers **and** the committed baseline they are compared
  against, plus the speedup ratio per benchmark;
* a regression check (``--check``) used by CI: fail only when a
  benchmark regresses more than ``--max-regression`` against the
  committed baseline (``benchmarks/perf/baseline.json``);
* a gain gate (``--min-speedup NAME=RATIO``, repeatable): fail unless
  the recorded speedup vs the committed baseline reaches ``RATIO`` —
  how CI pins a claimed improvement (e.g. the kernel's events/s
  multiple over the pre-fast-path baseline) instead of letting it
  silently erode.

Usage::

    python -m repro bench                     # full suite -> BENCH_perf.json
    python -m repro bench --quick             # CI-sized configuration
    python -m repro bench --update-baseline   # re-record the baseline file
    python -m repro bench --check             # exit 1 on >30% regression
    python -m repro bench --check --min-speedup kernel_events_per_sec=2.0

The timer (:func:`time_call`) is best-of-``repeat`` wall time around a
callable; other benchmarks (e.g. ``benchmarks/test_check_overhead.py``)
reuse it and merge their numbers into the same report via
:func:`merge_results`, so every wall-clock measurement of the project
lands in one file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_BASELINE_PATH",
    "DEFAULT_OUTPUT_PATH",
    "time_call",
    "bench_kernel_events",
    "bench_timer_churn",
    "bench_fig1_runner",
    "bench_multiring_runner",
    "bench_fuzz_round",
    "bench_geo_runner",
    "bench_clients",
    "bench_fig5_sweep",
    "run_suite",
    "baseline_mode_mismatch",
    "compare_to_baseline",
    "check_min_speedups",
    "parse_min_speedup",
    "speedups",
    "load_report",
    "write_report",
    "merge_results",
    "bench_main",
]

SCHEMA_VERSION = 1
DEFAULT_BASELINE_PATH = "benchmarks/perf/baseline.json"
DEFAULT_OUTPUT_PATH = "BENCH_perf.json"


def _atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    Several writers share ``BENCH_perf.json`` (the suite, the
    probe-overhead benchmark, parallel CI legs); a plain ``write_text``
    lets a reader — or a concurrent read-modify-write — observe a
    truncated file. The temp file lives next to the target so the final
    rename never crosses a filesystem boundary.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# Timing primitive
# ---------------------------------------------------------------------------
def time_call(
    fn: Callable[[], Any],
    repeat: int = 3,
    warmup: int = 0,
) -> tuple[Any, float]:
    """Run ``fn`` ``warmup + repeat`` times; return (last result, best seconds).

    Best-of is the standard estimator for wall benchmarks: the minimum
    over repeats converges on the true cost while means absorb scheduler
    noise. The *last* result is returned so callers can assert on it.
    """
    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    for _ in range(warmup):
        fn()
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return result, best


def _entry(value: float, unit: str, higher_is_better: bool, **meta: Any) -> dict:
    entry = {"value": value, "unit": unit, "higher_is_better": higher_is_better}
    if meta:
        entry["meta"] = meta
    return entry


# ---------------------------------------------------------------------------
# Benchmarks
# ---------------------------------------------------------------------------
def bench_kernel_events(n_events: int = 300_000, chains: int = 64, repeat: int = 3) -> dict:
    """Kernel microbench: events retired per real second, fast path.

    ``chains`` self-rescheduling callbacks keep the heap at a realistic
    depth while the loop runs nothing but the kernel: pop, advance the
    clock, fire, push. Uses the allocation-free scheduling entry point
    when the kernel provides one (``Simulator.post``), else ``schedule``
    — so the same benchmark is comparable across kernel generations.
    """
    from ..sim.simulator import Simulator

    per_chain = n_events // chains

    def run() -> int:
        sim = Simulator(seed=0)
        post = getattr(sim, "post", None)
        fired = 0

        if post is not None:
            def tick() -> None:
                nonlocal fired
                fired += 1
                if fired < n_events:
                    post(1e-6, tick)
        else:
            def tick() -> None:
                nonlocal fired
                fired += 1
                if fired < n_events:
                    sim.schedule(1e-6, tick)

        for i in range(chains):
            sim.schedule(i * 1e-9, tick)
        sim.run()
        return fired

    fired, best = time_call(run, repeat=repeat, warmup=1)
    return _entry(fired / best, "events/s", True,
                  n_events=n_events, chains=chains, per_chain=per_chain)


def bench_timer_churn(n_timers: int = 50_000, repeat: int = 3) -> dict:
    """Cancellable-event path: schedule + cancel churn, events per second.

    Guards the ``Event``-returning slow path, ``Simulator.schedule`` +
    ``cancel`` with lazily dropped tombstones: each round schedules an
    event, cancels the previous one, and lets every fourth fire. Ring
    Paxos's retry, heartbeat, batch and decision-flush deadlines no
    longer take it (``Timer`` and the coordinator's retry FIFO queue bare
    entries); ``PeriodicTimer`` restarts, ``Process.call_later``, fault
    schedules and the basic ``paxos`` roles still do.
    """
    from ..sim.simulator import Simulator

    def run() -> int:
        sim = Simulator(seed=0)
        fired = 0
        pending: list = [None]

        def tick() -> None:
            nonlocal fired
            fired += 1
            if fired >= n_timers:
                return
            if pending[0] is not None and fired % 4:
                sim.cancel(pending[0])
            pending[0] = sim.schedule(1e-6, tick)
            sim.schedule(5e-7, lambda: None)

        sim.schedule(0.0, tick)
        sim.run()
        return fired

    fired, best = time_call(run, repeat=repeat, warmup=1)
    return _entry(fired / best, "timers/s", True, n_timers=n_timers)


def bench_fig1_runner(offered_mbps: float = 300.0, repeat: int = 2) -> dict:
    """Wall seconds for one Figure 1 point (In-memory ring, open loop)."""
    from .runner import run_single_ring_point

    result, best = time_call(
        lambda: run_single_ring_point(offered_mbps, durable=False),
        repeat=repeat, warmup=1,
    )
    return _entry(best, "s", False,
                  offered_mbps=offered_mbps,
                  delivered_mbps=round(result.delivered_mbps, 3))


def bench_multiring_runner(
    n_rings: int = 4, duration: float = 0.5, warmup_s: float = 0.25, repeat: int = 2
) -> dict:
    """Wall seconds for a scaled Figure 5 point (n rings, closed loop)."""
    from .runner import run_multiring_point

    result, best = time_call(
        lambda: run_multiring_point(
            n_rings, durable=False, duration=duration, warmup=warmup_s
        ),
        repeat=repeat, warmup=1,
    )
    return _entry(best, "s", False,
                  n_rings=n_rings, duration=duration,
                  delivered_mbps=round(result.delivered_mbps, 3))


def bench_fuzz_round(seeds: tuple[int, ...] = (1234, 1235, 1236, 1237, 1238),
                     repeat: int = 2) -> dict:
    """Wall seconds for a bounded fuzz round (fixed seeds, full oracles)."""
    from ..check.driver import run_case

    def run() -> int:
        checked = 0
        for seed in seeds:
            result = run_case(seed)
            if not result.ok:  # pragma: no cover - deterministic safe seeds
                raise AssertionError(f"fuzz seed {seed} unexpectedly failed: {result.message}")
            checked += result.events_checked
        return checked

    checked, best = time_call(run, repeat=repeat, warmup=1)
    return _entry(best, "s", False, seeds=list(seeds), events_checked=checked)


def bench_geo_runner(
    far_ms: float = 25.0, duration: float = 0.5, warmup_s: float = 0.25, repeat: int = 2
) -> dict:
    """Wall seconds for one geo point: a WAN-stretched ring plus the
    cross-region placement deployment.

    The GeoNetwork send path adds per-message region lookups and, for
    cross-region traffic, a WAN-link FIFO hop; this entry pins that
    overhead so the geo fabric cannot silently slow the simulator.
    """
    from .geo import run_geo_placement_point, run_geo_ring_point

    def run():
        stretch = run_geo_ring_point(far_ms, duration=duration, warmup=warmup_s)
        placement = run_geo_placement_point(
            "remote", wan_ms=far_ms, duration=duration, warmup=warmup_s
        )
        return stretch, placement

    (stretch, placement), best = time_call(run, repeat=repeat, warmup=1)
    return _entry(best, "s", False,
                  far_ms=far_ms, duration=duration,
                  stretch_mbps=round(stretch.delivered_mbps, 3),
                  placement_mbps=round(placement.delivered_mbps, 3))


def bench_clients(
    n_sessions: int = 50_000,
    rate: float = 2000.0,
    duration: float = 0.5,
    warmup_s: float = 0.1,
    measure_per_actor: bool = True,
    repeat: int = 1,
) -> dict:
    """Simulated client sessions per wall-clock second (flyweight tier).

    Runs one :class:`~repro.workload.population.ClientPopulation` point —
    ``n_sessions`` sessions offering ``rate`` req/s total — and reports
    ``n_sessions / wall_seconds``. With ``measure_per_actor`` the
    equivalent per-actor population (one SmrClient + one generator per
    session, identical offered load and mix) runs too and the meta
    records its sessions/s and the speedup — the ≥10x optimization claim
    measured in-run. The committed baseline entry holds the *per-actor*
    number, so CI's ``--min-speedup clients_sessions_per_sec=8`` gate
    pins the flyweight multiple the same way ``kernel_events_per_sec``
    pins the kernel's fast paths against the original baseline.
    """
    from .clients import run_per_actor_point, run_population_point

    result, best = time_call(
        lambda: run_population_point(
            n_sessions, rate, write_only=True, duration=duration, warmup=warmup_s
        ),
        repeat=repeat,
    )
    meta: dict[str, Any] = {
        "n_sessions": n_sessions,
        "rate": rate,
        "duration": duration,
        "wall_s": round(best, 4),
        "delivered_msgs_per_s": round(result.msgs_per_s, 1),
        "p99_ms": round(result.extra["p99_ms"], 3),
    }
    if measure_per_actor:
        actor, actor_best = time_call(
            lambda: run_per_actor_point(
                n_sessions, rate, duration=duration, warmup=warmup_s
            ),
            repeat=1,
        )
        meta["per_actor_wall_s"] = round(actor_best, 4)
        meta["per_actor_sessions_per_sec"] = round(n_sessions / actor_best, 1)
        meta["per_actor_msgs_per_s"] = round(actor.msgs_per_s, 1)
        meta["speedup_vs_per_actor"] = round(actor_best / best, 2)
    return _entry(n_sessions / best, "sessions/s", True, **meta)


def bench_fig5_sweep(
    jobs: int | str = 4,
    n_list: tuple[int, ...] = (1, 2, 4, 4),
    duration: float = 0.5,
    warmup_s: float = 0.25,
) -> dict:
    """The fig5 sweep through the parallel executor: serial vs fanned-out
    vs fully cached.

    One measurement, three legs over identical specs (scaled-down
    Figure 5 multi-ring points):

    * ``serial_s`` — ``jobs=1``, in-process (the pre-executor behavior);
    * value (``parallel_s``) — ``jobs=N`` worker fan-out;
    * ``cached_s`` — a rerun against a freshly warmed cache.

    The three result lists must be identical (the executor's determinism
    guarantee); the meta carries the speedup ratios and the host's CPU
    count, since the parallel ratio is meaningless without it.
    """
    import shutil
    from ..parallel import ResultCache, Spec, parse_jobs, run_specs

    jobs = parse_jobs(jobs)
    specs = [
        Spec(
            fn="repro.bench.runner:run_multiring_point",
            kwargs={"n_rings": n, "durable": False, "duration": duration,
                    "warmup": warmup_s, "seed": 1 + i},
            label=f"fig5_sweep:n{n}:seed{1 + i}",
        )
        for i, n in enumerate(n_list)
    ]

    serial, serial_s = time_call(lambda: run_specs(specs, jobs=1), repeat=1, warmup=1)
    parallel, parallel_s = time_call(lambda: run_specs(specs, jobs=jobs), repeat=1)
    if [r.delivered_mbps for r in serial] != [r.delivered_mbps for r in parallel]:
        raise AssertionError("parallel sweep results differ from serial")

    cache_dir = tempfile.mkdtemp(prefix="repro-sweep-cache-")
    try:
        cache = ResultCache(cache_dir)
        _, cold_s = time_call(lambda: run_specs(specs, jobs=1, cache=cache), repeat=1)
        cached, cached_s = time_call(lambda: run_specs(specs, jobs=1, cache=cache), repeat=1)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if [r.delivered_mbps for r in cached] != [r.delivered_mbps for r in serial]:
        raise AssertionError("cached sweep results differ from serial")

    return _entry(
        parallel_s, "s", False,
        jobs=jobs,
        cpu_count=os.cpu_count(),
        points=len(specs),
        serial_s=serial_s,
        parallel_speedup_vs_serial=round(serial_s / parallel_s, 3) if parallel_s else None,
        cache_cold_s=cold_s,
        cached_rerun_s=cached_s,
        cached_rerun_fraction_of_cold=round(cached_s / cold_s, 4) if cold_s else None,
    )


def run_suite(mode: str = "full", verbose: bool = True, jobs: int | str = 4) -> dict[str, dict]:
    """Run every benchmark at the given size; returns name -> entry.

    ``jobs`` sizes the parallel leg of the sweep benchmark (the other
    benchmarks are single-process by design).
    """
    if mode == "full":
        plan: list[tuple[str, Callable[[], dict]]] = [
            ("kernel_events_per_sec", lambda: bench_kernel_events()),
            ("timer_churn_per_sec", lambda: bench_timer_churn()),
            ("fig1_runner_s", lambda: bench_fig1_runner()),
            ("fig5_multiring_s", lambda: bench_multiring_runner()),
            ("fuzz_round_s", lambda: bench_fuzz_round()),
            ("geo_runner_s", lambda: bench_geo_runner()),
            ("clients_sessions_per_sec", lambda: bench_clients(repeat=2)),
            ("fig5_sweep_parallel_s", lambda: bench_fig5_sweep(jobs=jobs)),
        ]
    elif mode == "quick":
        plan = [
            ("kernel_events_per_sec", lambda: bench_kernel_events(n_events=100_000, repeat=2)),
            ("timer_churn_per_sec", lambda: bench_timer_churn(n_timers=20_000, repeat=2)),
            ("fig1_runner_s", lambda: bench_fig1_runner(offered_mbps=150.0, repeat=1)),
            ("fig5_multiring_s",
             lambda: bench_multiring_runner(n_rings=2, duration=0.4, warmup_s=0.2, repeat=1)),
            ("fuzz_round_s", lambda: bench_fuzz_round(seeds=(1234, 1235), repeat=1)),
            ("geo_runner_s",
             lambda: bench_geo_runner(duration=0.3, warmup_s=0.15, repeat=1)),
            # The per-actor leg would dominate the quick suite's wall
            # time; quick mode runs only the flyweight tier and the gate
            # compares against the committed per-actor baseline entry.
            ("clients_sessions_per_sec",
             lambda: bench_clients(duration=0.3, measure_per_actor=False)),
            ("fig5_sweep_parallel_s",
             lambda: bench_fig5_sweep(jobs=jobs, n_list=(1, 2), duration=0.3, warmup_s=0.15)),
        ]
    else:
        raise ValueError(f"unknown benchmark mode {mode!r} (expected 'full' or 'quick')")
    results: dict[str, dict] = {}
    for name, fn in plan:
        entry = fn()
        results[name] = entry
        if verbose:
            print(f"  {name:<28s} {entry['value']:>14,.2f} {entry['unit']}")
    return results


# ---------------------------------------------------------------------------
# Reports, baselines, regression math
# ---------------------------------------------------------------------------
def _host_info() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def speedups(current: dict[str, dict], baseline: dict[str, dict]) -> dict[str, float]:
    """Per-benchmark improvement ratio vs baseline (>1 means faster now)."""
    out: dict[str, float] = {}
    for name, entry in current.items():
        base = baseline.get(name)
        if not base or not base.get("value") or not entry.get("value"):
            continue
        if entry["higher_is_better"]:
            out[name] = entry["value"] / base["value"]
        else:
            out[name] = base["value"] / entry["value"]
    return out


def compare_to_baseline(
    current: dict[str, dict], baseline: dict[str, dict], max_regression: float
) -> list[str]:
    """Regression messages for benchmarks worse than ``max_regression``.

    A regression of 0.30 means "30% slower than baseline" in either
    metric direction; missing baselines are never regressions (new
    benchmarks must be able to land before their first baseline).
    """
    failures = []
    for name, ratio in speedups(current, baseline).items():
        if ratio < 1.0 - max_regression:
            failures.append(
                f"{name}: {(1.0 - ratio) * 100:.1f}% slower than baseline "
                f"(allowed {max_regression * 100:.0f}%)"
            )
    return failures


def parse_min_speedup(spec: str) -> tuple[str, float]:
    """Parse a ``NAME=RATIO`` gain-gate spec (e.g. ``kernel_events_per_sec=2.0``)."""
    name, sep, ratio_text = spec.partition("=")
    if not sep or not name:
        raise ValueError(f"expected NAME=RATIO, got {spec!r}")
    try:
        ratio = float(ratio_text)
    except ValueError:
        raise ValueError(f"invalid ratio in {spec!r}") from None
    if ratio <= 0:
        raise ValueError(f"ratio must be positive in {spec!r}")
    return name, ratio


def check_min_speedups(
    ratios: dict[str, float], required: dict[str, float]
) -> list[str]:
    """Failure messages for recorded speedups below their required floor.

    ``ratios`` is the report's ``speedup`` section (vs the committed
    baseline). A benchmark with no recorded ratio — missing from the
    suite or from the baseline — fails the gate too: a gain that cannot
    be measured is not a gain that landed.
    """
    failures = []
    for name, floor in required.items():
        ratio = ratios.get(name)
        if ratio is None:
            failures.append(f"{name}: no speedup recorded vs baseline (need >= {floor:.2f}x)")
        elif ratio < floor:
            failures.append(f"{name}: {ratio:.2f}x vs baseline, need >= {floor:.2f}x")
    return failures


def load_report(path: str | Path) -> dict | None:
    """Read a report/baseline JSON; None when absent."""
    p = Path(path)
    if not p.exists():
        return None
    return json.loads(p.read_text())


def _baseline_entry(baseline: dict | None, mode: str) -> dict:
    """The baseline record a ``mode`` run would be compared against.

    Modern baseline files keep one entry per mode under ``modes``;
    legacy flat files are a single entry at the top level (benchmarks +
    file-level provenance + optionally the ``mode`` they were recorded
    in). The entry's recorded mode rides along so callers can refuse
    cross-mode comparisons instead of treating quick numbers as full
    ones.
    """
    if not baseline:
        return {}
    modes = baseline.get("modes")
    if modes is not None:
        entry = modes.get(mode, {})
        if entry and "mode" not in entry:
            # Pre-stamp entries: the storage key is the only record.
            entry = {**entry, "mode": mode}
        return entry
    return {
        key: baseline[key]
        for key in ("benchmarks", "recorded_at", "host", "note", "mode")
        if baseline.get(key) is not None
    }


def baseline_mode_mismatch(baseline: dict | None, mode: str) -> str | None:
    """The baseline entry's recorded mode when it differs from ``mode``.

    ``None`` means the comparison is sound (same mode, or no baseline /
    no recorded mode to contradict it). A non-``None`` return is the
    mismatching recorded mode — callers warn and skip speedups and
    gates rather than compare quick against full numbers.
    """
    recorded = _baseline_entry(baseline, mode).get("mode")
    return recorded if recorded is not None and recorded != mode else None


def _baseline_benchmarks(baseline: dict | None, mode: str) -> dict[str, dict]:
    """Comparable baseline numbers for ``mode`` ({} on mode mismatch)."""
    if baseline_mode_mismatch(baseline, mode) is not None:
        return {}
    return _baseline_entry(baseline, mode).get("benchmarks", {})


def _baseline_provenance(baseline: dict | None, mode: str) -> dict:
    """When/where/on-what the compared baseline was recorded.

    Per-mode provenance (each mode can be re-recorded independently)
    with a fallback to the file-level fields older baseline files carry.
    """
    if not baseline:
        return {"recorded_at": None, "host": None}
    mode_entry = _baseline_entry(baseline, mode)
    out = {
        "recorded_at": mode_entry.get("recorded_at") or baseline.get("recorded_at"),
        "host": mode_entry.get("host") or baseline.get("host"),
    }
    note = mode_entry.get("note") or baseline.get("note")
    if note:
        out["note"] = note
    mismatch = baseline_mode_mismatch(baseline, mode)
    if mismatch is not None:
        out["mode_mismatch"] = mismatch
    return out


def write_report(
    path: str | Path,
    mode: str,
    benchmarks: dict[str, dict],
    baseline: dict | None = None,
) -> dict:
    """Write ``BENCH_perf.json``: current numbers + baseline + speedups."""
    base_benchmarks = _baseline_benchmarks(baseline, mode)
    report = {
        "schema": SCHEMA_VERSION,
        "mode": mode,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": _host_info(),
        "benchmarks": benchmarks,
        "baseline": {
            **_baseline_provenance(baseline, mode),
            "benchmarks": base_benchmarks,
        },
        "speedup": speedups(benchmarks, base_benchmarks),
    }
    _atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def update_baseline(
    path: str | Path, mode: str, benchmarks: dict[str, dict], note: str | None = None
) -> dict:
    """Record ``benchmarks`` as the committed baseline for ``mode``.

    Provenance (timestamp, host, optional free-text ``note`` naming the
    kernel generation the numbers measure) is stored per mode, so
    re-recording one mode does not misattribute the other's numbers.
    """
    existing = load_report(path) or {"schema": SCHEMA_VERSION, "modes": {}}
    existing["schema"] = SCHEMA_VERSION
    mode_entry: dict[str, Any] = {
        "benchmarks": benchmarks,
        "mode": mode,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": _host_info(),
    }
    if note:
        mode_entry["note"] = note
    existing.setdefault("modes", {})[mode] = mode_entry
    _atomic_write_text(path, json.dumps(existing, indent=2, sort_keys=True) + "\n")
    return existing


def merge_results(results: dict[str, dict], path: str | Path = DEFAULT_OUTPUT_PATH) -> None:
    """Merge extra benchmark entries into an existing report (or start one).

    Lets satellite benchmarks (e.g. the probe-overhead test) land their
    numbers in the same ``BENCH_perf.json`` the suite writes, without
    re-running the suite. The read-modify-write publishes atomically
    (temp file + ``os.replace``), so a concurrent merger or reader can
    never observe a truncated report — last writer wins whole-file.
    """
    report = load_report(path) or {
        "schema": SCHEMA_VERSION,
        "mode": "partial",
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": _host_info(),
        "benchmarks": {},
        "baseline": {"benchmarks": {}},
        "speedup": {},
    }
    report.setdefault("benchmarks", {}).update(results)
    _atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def bench_main(argv: list[str] | None = None) -> int:
    """``python -m repro bench`` — run the suite, write the report."""
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Wall-clock performance suite for the simulation kernel.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized configuration (smaller events/figures)")
    parser.add_argument("--out", default=DEFAULT_OUTPUT_PATH,
                        help=f"report path (default {DEFAULT_OUTPUT_PATH})")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE_PATH,
                        help=f"committed baseline path (default {DEFAULT_BASELINE_PATH})")
    parser.add_argument("--update-baseline", action="store_true",
                        help="record this run as the new committed baseline")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any benchmark regresses past --max-regression")
    parser.add_argument("--max-regression", type=float, default=0.30,
                        help="allowed slowdown vs baseline (default 0.30 = 30%%)")
    parser.add_argument("--min-speedup", action="append", default=[],
                        metavar="NAME=RATIO",
                        help="with --check: fail unless the recorded speedup of "
                             "NAME vs the committed baseline is at least RATIO "
                             "(repeatable)")
    parser.add_argument("--baseline-note", default=None,
                        help="with --update-baseline: free-text provenance note "
                             "recorded alongside the new baseline (e.g. which "
                             "kernel generation it measures)")
    parser.add_argument("--jobs", default="4",
                        help="worker processes for the sweep benchmark's parallel "
                             "leg: a number or 'auto' (default 4)")
    args = parser.parse_args(argv)

    from ..parallel import parse_jobs

    try:
        jobs = parse_jobs(args.jobs)
        required_speedups = dict(parse_min_speedup(s) for s in args.min_speedup)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    mode = "quick" if args.quick else "full"
    print(f"perf suite ({mode}):")
    benchmarks = run_suite(mode, jobs=jobs)

    if args.update_baseline:
        update_baseline(args.baseline, mode, benchmarks, note=args.baseline_note)
        print(f"baseline ({mode}) updated: {args.baseline}")

    baseline = load_report(args.baseline)
    mismatch = baseline_mode_mismatch(baseline, mode)
    if mismatch is not None:
        print(
            f"warning: baseline for {mode!r} was recorded in {mismatch!r} mode; "
            "speedups not computed (re-record with --update-baseline)",
            file=sys.stderr,
        )
    report = write_report(args.out, mode, benchmarks, baseline)
    print(f"report written: {args.out}")
    for name, ratio in sorted(report["speedup"].items()):
        print(f"  {name:<28s} {ratio:>6.2f}x vs baseline")

    if args.check:
        if mismatch is not None:
            # Comparing a quick run against full numbers (or vice versa)
            # would gate on noise, not regressions: warn, don't fail.
            print(
                "regression check skipped (baseline mode mismatch: "
                f"recorded {mismatch!r}, run {mode!r})",
                file=sys.stderr,
            )
            return 0
        failures = compare_to_baseline(
            benchmarks, _baseline_benchmarks(baseline, mode), args.max_regression
        )
        failures += check_min_speedups(report["speedup"], required_speedups)
        if failures:
            for failure in failures:
                print(f"REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"regression check passed (threshold {args.max_regression * 100:.0f}%)")
        for name, floor in sorted(required_speedups.items()):
            print(f"gain gate passed: {name} {report['speedup'][name]:.2f}x >= {floor:.2f}x")
    return 0
