"""One workload, measured in this process: set-up reps, stats rep, timed reps.

Run shape (README.md has the reasons):

1. *set-up reps* — ``repro`` is imported afresh and the workload built,
   several times over; ``setup_s`` is the median.
2. *stats rep* — the scenario once under a :class:`recorder.Recorder`:
   every simulated-clock metric, the exact counts and the oracle verdict.
   It is also the warm-up.
3. *timed reps* — the same scenario with nothing attached, interleaved
   chunk by chunk with slices of the calibration kernel, until ``seconds``
   are spent. Every rep must execute the stats rep's event count and
   reproduce its delivery digest.
4. with ``trace``: more timed reps under the stack sampler, then one under
   cProfile.

This module never imports ``repro`` at module level, so that step 1 can
time the import.
"""

from __future__ import annotations

import gc
import importlib
import math
import os
import platform
import resource
import statistics
import sys
import time

import calib
import layers

MIN_REPS = 3
SETUP_REPS = 5
# A traced run spends this share of its budget on untraced reps, the
# reference of host.trace_overhead_ratio, and needs fewer reps of each kind.
UNTRACED_SHARE = 0.3
MIN_REPS_TRACED = 2
HARNESS_MODULES = ("scenarios", "recorder")


class Incorrect(Exception):
    """The run failed a correctness check; the message is the reported problem."""


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ----------------------------------------------------------------------
# Step 1: set-up
# ----------------------------------------------------------------------
def setup_reps(name: str, seed: int, scale: float, calibrator: calib.Calibrator) -> dict:
    """Import ``repro`` and build the workload ``SETUP_REPS`` times."""
    walls, normalised = [], []
    flank = calibrator.slice()
    for _ in range(SETUP_REPS):
        for module in list(sys.modules):
            if module.partition(".")[0] == "repro" or module in HARNESS_MODULES:
                del sys.modules[module]
        gc.collect()
        start = time.perf_counter()
        scenarios = importlib.import_module("scenarios")
        scenarios.WORKLOADS[name](seed, scale)
        walls.append(time.perf_counter() - start)
        next_flank = calibrator.slice()
        normalised.append(calib.CALIB_REF_S * walls[-1] / ((flank + next_flank) / 2))
        flank = next_flank
    return {"setup_s": statistics.median(normalised), "raw_s": walls}


# ----------------------------------------------------------------------
# Step 2: the stats rep
# ----------------------------------------------------------------------
def stats_rep(cls, seed: int, scale: float):
    from recorder import Recorder

    with Recorder() as recorder:
        run = cls(seed, scale)
        run.advance(recorder.mark)
    return run, recorder


def _ms(samples: list[float], q: float) -> float:
    """Linear-interpolated quantile of ``samples`` (seconds), in milliseconds."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = q * (len(ordered) - 1)
    lo, hi = math.floor(rank), math.ceil(rank)
    return (ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)) * 1e3


def _pooled(recorder, per_segment) -> list:
    return [x for segment in recorder.segments for x in per_segment(segment)]


def end_to_end_simulated(run, recorder) -> tuple[dict, dict]:
    """The simulated-clock end-to-end metrics, and the per-layer metrics
    that describe the same quantities (sample count, SLO rate, outage)."""
    segments = {segment.label: segment for segment in recorder.segments}
    measured_s = sum(segment.span for segment in recorder.segments)
    slo_mbps = outage_s = 0.0
    if run.name == "ring1_open":
        # Latency below the knee, goodput above it, the SLO across legs.
        latency = segments[run.LATENCY_LEG].ring_latency
        saturation = segments[run.SATURATION_LEG]
        goodput = saturation.ring_deliveries / saturation.span
        for (label, _, proposer), segment in zip(run.legs, recorder.segments):
            drained = proposer.sent.value == sum(segment.batch_sizes.values())
            if drained and _ms(segment.ring_latency, 0.99) <= run.SLO_P99_MS:
                slo_mbps = max(slo_mbps, float(label))
    elif run.name == "smr_failover":
        latency = None  # request to last awaited reply, from the population
        goodput = recorder.segments[0].completions / measured_s
        # First delivery of a value multicast to the crashed ring after
        # the crash: nothing the dead coordinator had seen.
        recovered_at = min(
            (delivered_at
             for ring, _, sent_at, _, delivered_at in recorder.segments[0].deliveries
             if ring == run.CRASHED_RING and sent_at > run.crash_at),
            default=None,
        )
        if recovered_at is None:
            raise Incorrect("the crashed ring delivered nothing sent after the crash")
        outage_s = recovered_at - run.crash_at
    else:
        latency = _pooled(recorder, lambda s: s.delivery_latency())
        goodput = len(_pooled(recorder, lambda s: s.delivered_in_window())) / measured_s
    if latency is None:
        histogram = recorder.histogram("request_latency", "population")
        p50, p99 = (q * 1e3 for q in histogram.quantiles([0.5, 0.99]))
        samples = histogram.count
    else:
        p50, p99, samples = _ms(latency, 0.5), _ms(latency, 0.99), len(latency)
    end_to_end = {
        "sim_goodput_ops_s": metric(goodput, "ops/sim-s"),
        "sim_latency_p50_ms": metric(p50, "sim-ms"),
        "sim_latency_p99_ms": metric(p99, "sim-ms"),
    }
    per_layer = {
        "e2e.latency_samples": metric(samples, "count"),
        "e2e.sim_slo_rate_mbps": metric(slo_mbps, "Mbit/s"),
        "e2e.sim_outage_s": metric(outage_s, "sim-s"),
        "e2e.failed_share": metric(run.failed / max(run.attempted, 1), "fraction"),
    }
    return end_to_end, per_layer


def model_errors(run, goodput_ops_s: float, recorder) -> tuple[float, float]:
    """Simulator vs the analytic model, in percent: (saturation, latency).

    The model is the repository's accuracy reference (``repro validate``);
    it predicts the two capacity workloads only.
    """
    from repro.calibration import bytes_per_s_to_mbps
    from repro.model import MultiRingModel, RingModel

    if run.name == "ring1_open":
        model = RingModel(value_size=run.VALUE_SIZE, lambda_rate=0.0)
        sim_mbps = bytes_per_s_to_mbps(goodput_ops_s * run.VALUE_SIZE)
        below_knee = next(s for s in recorder.segments if s.label == run.LATENCY_LEG)
        predicted_s = model.response_time_s(float(run.LATENCY_LEG))
        return (
            100.0 * (sim_mbps / model.saturation_mbps - 1.0),
            100.0 * (statistics.fmean(below_knee.ring_latency) / predicted_s - 1.0),
        )
    if run.name == "rings4_disk_closed":
        model_mbps = MultiRingModel.from_config(run.config).aggregate_saturation_mbps()
        sim_mbps = bytes_per_s_to_mbps(goodput_ops_s * run.VALUE_SIZE)
        return 100.0 * (sim_mbps / model_mbps - 1.0), 0.0
    return 0.0, 0.0


def layer_counts(run, recorder, goodput_ops_s: float) -> dict:
    """Exact counts and simulated-clock occupancy, layer by layer."""
    count = recorder.counter
    util = recorder.utilization
    attempted = max(run.attempted, 1)
    events = recorder.events_executed()
    msgs_sent, bytes_sent, dropped = recorder.nic_totals()
    ring_latency = _pooled(recorder, lambda s: s.ring_latency)
    merge_wait = _pooled(recorder, lambda s: s.merge_wait())
    batch_sizes = _pooled(recorder, lambda s: s.batch_sizes.values())
    delivered_bytes = sum(_pooled(recorder, lambda s: s.delivered_in_window()))
    measured_s = sum(segment.span for segment in recorder.segments)
    consumed = count("merge_consumed_instances", "learner")
    skipped = count("merge_skipped_instances", "learner")
    crash_at = getattr(run, "crash_at", None)
    suspects, takeovers = recorder.suspect_times, recorder.takeover_times
    if crash_at is not None and not (suspects and takeovers):
        raise Incorrect(f"coordinator crash at {crash_at}: {len(suspects)} suspicions, "
                        f"{len(takeovers)} takeovers")
    request_latency = recorder.histogram("request_latency", "population")
    saturation_err, latency_err = model_errors(run, goodput_ops_s, recorder)

    def c(value: float) -> dict:
        return metric(value, "count")

    def share(value: float) -> dict:
        return metric(value, "fraction")

    return {
        "sim.kernel.events": c(events),
        "sim.kernel.events_per_op": metric(events / attempted, "1/op"),
        "sim.network.msgs_sent": c(msgs_sent),
        "sim.network.bytes_sent": metric(bytes_sent, "B"),
        "sim.network.msgs_per_op": metric(msgs_sent / attempted, "1/op"),
        "sim.network.wire_bytes_per_payload_byte": metric(
            bytes_sent / max(recorder.payload_bytes, 1), "B/B"
        ),
        "sim.network.msgs_dropped": c(dropped),
        "sim.server.jobs": c(recorder.server_jobs()),
        "sim.server.coord_cpu_util": share(util("-coord", "cpu")),
        "sim.server.acceptor_cpu_util": share(util("-acc", "cpu")),
        "sim.server.acceptor_disk_util": share(util("-", "disk")),
        "sim.server.learner_cpu_util": share(max(util("lrn", "cpu"), util("replica", "cpu"))),
        "sim.server.learner_nic_rx_util": share(
            max(util("lrn", "nic.rx"), util("replica", "nic.rx"))
        ),
        "sim.server.coord_nic_tx_util": share(util("-coord", "nic.tx")),
        "ringpaxos.proposer.values_sent": c(recorder.multicasts),
        # Every Submit beyond the first of a value is a retransmission.
        "ringpaxos.proposer.retransmissions": c(
            max(recorder.messages_by_type.get("Submit", 0) - recorder.multicasts, 0)
        ),
        "ringpaxos.coordinator.instances_decided": c(count("instances_decided", "coordinator")),
        "ringpaxos.coordinator.values_per_instance": metric(
            sum(batch_sizes) / max(len(batch_sizes), 1), "1/instance"
        ),
        "ringpaxos.coordinator.skip_instances": c(count("skips_proposed", "coordinator")),
        "ringpaxos.coordinator.retries": c(count("retries", "coordinator")),
        "ringpaxos.acceptor.accepts": c(count("accepts", "acceptor")),
        "ringpaxos.acceptor.forwards": c(count("forwards", "acceptor")),
        "ringpaxos.acceptor.repairs_served": c(count("repairs_served", "acceptor")),
        "ringpaxos.acceptor.catchups_served": c(count("catchups_served", "acceptor")),
        "ringpaxos.acceptor.recoveries": c(count("recoveries", "acceptor")),
        "ringpaxos.learner.ring_latency_p50_ms": metric(_ms(ring_latency, 0.5), "sim-ms"),
        "ringpaxos.learner.ring_latency_p99_ms": metric(_ms(ring_latency, 0.99), "sim-ms"),
        "ringpaxos.learner.repairs_requested": c(count("repairs_requested", "learner")),
        "ringpaxos.learner.catchups_requested": c(count("catchups_requested", "learner")),
        "core.skip.intervals_sampled": c(count("intervals_sampled", "skipmgr")),
        "core.skip.skip_batches": c(count("skip_batches", "skipmgr")),
        "core.skip.skip_share": share(skipped / consumed if consumed else 0.0),
        "core.merge.consumed_instances": c(consumed),
        "core.merge.skipped_instances": c(skipped),
        "core.merge.wait_p50_ms": metric(_ms(merge_wait, 0.5), "sim-ms"),
        "core.merge.wait_p99_ms": metric(_ms(merge_wait, 0.99), "sim-ms"),
        "core.learner.delivered_messages": c(count("merge_delivered", "learner")),
        "core.learner.delivered_mbps": metric(delivered_bytes * 8e-6 / measured_s, "Mbit/s"),
        "core.learner.discarded_messages": c(count("discarded_messages", "learner")),
        "core.proposer.multicasts": c(count("multicasts", "proposer")),
        "core.proposer.admitted": c(count("admitted", "proposer")),
        "core.proposer.delayed": c(count("delayed", "proposer")),
        "core.proposer.shed": c(count("shed", "proposer")),
        "core.control.suspects": c(count("suspects", "failover")),
        "core.control.takeovers": c(count("takeovers", "failover")),
        # Crash to suspicion, suspicion to the new coordinator installed;
        # only where the harness injects the crash itself.
        "core.control.detect_s": metric(
            suspects[0] - crash_at if crash_at is not None else 0.0, "sim-s"
        ),
        "core.control.takeover_s": metric(
            takeovers[0] - suspects[0] if crash_at is not None else 0.0, "sim-s"
        ),
        "smr.executed": c(recorder.applied),
        "smr.discarded": c(sum(r.discarded.value for r in getattr(run, "replicas", ()))),
        "workload.requests": c(count("requests", "population")),
        "workload.completions": c(count("completions", "population")),
        "workload.timeouts": c(count("timeouts", "population")),
        "workload.retries": c(count("retries", "population")),
        "workload.failovers": c(count("failovers", "population")),
        "workload.abandoned": c(count("abandoned", "population")),
        "workload.skipped_busy": c(count("skipped_busy", "population")),
        "workload.latency_p999_ms": metric(
            request_latency.quantiles([0.999])[0] * 1e3 if request_latency else 0.0, "sim-ms"
        ),
        "check.cases": c(len(getattr(run, "cases", ()))),
        "check.events_checked": c(recorder.events_checked()),
        "check.violations": c(run.failed if hasattr(run, "cases") else 0),
        "obs.probe_events": c(recorder.probe_events()),
        "model.saturation_err_pct": metric(saturation_err, "%"),
        "model.latency_err_pct": metric(latency_err, "%"),
    }


# ----------------------------------------------------------------------
# Step 3: timed reps
# ----------------------------------------------------------------------
def fingerprint(run) -> dict:
    return {"events": run.events, "delivered": run.delivered, "digest": run.digest}


class Stopwatch:
    """Wall time of a rep's chunks, and of the calibration slices between them."""

    def __init__(self, calibrator: calib.Calibrator,
                 sampler: "layers.Sampler | None" = None) -> None:
        self.calibrator = calibrator
        self.sampler = sampler
        self.wall_s = 0.0
        self.slices: list[float] = []
        self._started = 0.0

    def start(self) -> None:
        if self.sampler is not None:
            self.sampler.resume()
        self._started = time.perf_counter()

    def pause(self) -> None:
        """End of a chunk: stop the clock, run one slice, start it again."""
        self.wall_s += time.perf_counter() - self._started
        if self.sampler is not None:
            self.sampler.suspend()
        self.slices.append(self.calibrator.slice())
        self.start()


def timed_reps(cls, seed: int, scale: float, budget_s: float, reference: dict,
               calibrator: calib.Calibrator, min_reps: int,
               sampler: "layers.Sampler | None" = None) -> list[dict]:
    """Bare reps interleaved with calibration slices, for ``budget_s`` seconds."""
    reps = []
    begin = time.perf_counter()
    while True:
        gc.collect()
        run = cls(seed, scale)
        watch = Stopwatch(calibrator, sampler)
        watch.start()
        run.advance(pause=watch.pause)
        if sampler is not None:
            sampler.suspend()
        if fingerprint(run) != reference:
            raise Incorrect(f"rep {len(reps)}: {fingerprint(run)} != stats rep {reference}")
        del run
        reps.append({"wall_s": watch.wall_s, "calib_s": statistics.fmean(watch.slices)})
        elapsed = time.perf_counter() - begin
        if len(reps) >= min_reps and elapsed * (1 + 1 / len(reps)) > budget_s:
            return reps


def wall_norm(reps: list[dict]) -> float:
    return (
        calib.CALIB_REF_S * sum(r["wall_s"] for r in reps) / sum(r["calib_s"] for r in reps)
    )


def host_meta() -> dict:
    from repro import calibration

    return {
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg": list(os.getloadavg()),
        },
        "substrate": {
            "link_bandwidth_bytes_per_s": calibration.LINK_BANDWIDTH_BYTES_PER_S,
            "one_way_propagation_s": calibration.ONE_WAY_PROPAGATION_S,
            "cpu_byte_cost_coordinator": calibration.CPU_BYTE_COST_COORDINATOR,
            "cpu_fixed_cost_coordinator": calibration.CPU_FIXED_COST_COORDINATOR,
            "disk_bandwidth_bytes_per_s": calibration.DISK_BANDWIDTH_BYTES_PER_S,
            "batch_size_bytes": calibration.BATCH_SIZE_BYTES,
        },
        "calib_ref_s": calib.CALIB_REF_S,
    }


# ----------------------------------------------------------------------
# The whole run of one workload
# ----------------------------------------------------------------------
def incorrect(name: str, seed: int, attempted: int, failed: int, problem: str) -> dict:
    return {"workload": name, "seed": seed, "correct": False, "problems": [problem],
            "attempted": max(attempted, 1), "failed": failed}


def host_profile(reps: list[dict], traced: list[dict], sampler, calls: dict, events: int):
    """The per-layer metrics and details only a traced run can give."""
    shares = sampler.shares()
    q1, median, q3 = quartiles([r["wall_s"] for r in reps])
    metrics = {
        "host.samples": metric(sampler.samples, "count"),
        "host.trace_overhead_ratio": metric(wall_norm(traced) / wall_norm(reps), "ratio"),
        "host.run_wall_s": metric(median, "s"),
        "host.calib_s": metric(statistics.median(r["calib_s"] for r in reps), "s"),
        "host.events_per_wall_s": metric(events / median, "1/s"),
    }
    for layer in layers.LAYERS:
        metrics[f"{layer}.host_share"] = metric(shares[layer], "fraction")
        metrics[f"{layer}.calls"] = metric(calls[layer], "count")
    detail = {
        "traced_reps": traced,
        "run_wall_quartiles_s": [q1, median, q3],
        "top_host_layers": sorted(shares, key=shares.get, reverse=True)[:3],
    }
    return metrics, detail


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
            folded_path: str | None = None) -> dict:
    """Measure one workload; returns the result document."""
    calibrator = calib.Calibrator()
    setup = setup_reps(name, seed, scale, calibrator)
    scenarios = importlib.import_module("scenarios")
    cls = scenarios.WORKLOADS[name]

    run, recorder = stats_rep(cls, seed, scale)
    attempted, failed = run.attempted, run.failed
    if recorder.violation:
        # No operation of a run that broke the specification counts as done.
        return incorrect(name, seed, attempted, attempted,
                         f"oracle violation: {recorder.violation}")
    reference = fingerprint(run)
    budget = seconds * UNTRACED_SHARE if trace else seconds
    min_reps = MIN_REPS_TRACED if trace else MIN_REPS
    try:
        simulated, per_layer = end_to_end_simulated(run, recorder)
        per_layer.update(layer_counts(run, recorder, simulated["sim_goodput_ops_s"]["value"]))
        detail: dict = {
            "reference": reference,
            "setup": setup,
            "messages_by_type": dict(sorted(recorder.messages_by_type.items())),
        }
        del run, recorder
        reps = timed_reps(cls, seed, scale, budget, reference, calibrator, min_reps)
        if trace:
            with layers.Sampler() as sampler:
                traced = timed_reps(
                    cls, seed, scale, seconds - budget, reference, calibrator, min_reps, sampler
                )
            calls = layers.profiled_calls(cls(seed, scale).advance)
            host, host_detail = host_profile(reps, traced, sampler, calls, reference["events"])
            per_layer = {**host, **per_layer}
            detail.update(host_detail)
            if folded_path:
                with open(folded_path, "w", encoding="utf-8") as handle:
                    handle.write(sampler.folded())
    except Incorrect as problem:
        return incorrect(name, seed, attempted, failed, str(problem))

    detail["reps"] = reps
    detail["run_wall_norm_quartiles_s"] = list(
        quartiles([calib.CALIB_REF_S * r["wall_s"] / r["calib_s"] for r in reps])
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": True,
        "problems": [],
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "run_wall_norm_s": metric(wall_norm(reps), "s"),
            "setup_s": metric(setup["setup_s"], "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            **simulated,
        },
        "per_layer": per_layer,
        "detail": detail,
        "meta": host_meta(),
    }
