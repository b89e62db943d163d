"""What the harness emits is what BENCHMARK.json promises."""

import json
import re

import pytest

import bench
import calib
import compare
import measure
from conftest import ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(autouse=True)
def cheap_measurement(monkeypatch):
    # These tests are about what is emitted, not about its precision: no
    # calibration work, and one rep where a real run makes several.
    monkeypatch.setattr(calib.Calibrator, "slice", lambda self: calib.CALIB_REF_S)
    for knob in ("SETUP_REPS", "MIN_REPS", "MIN_REPS_TRACED"):
        monkeypatch.setattr(measure, knob, 1)


def names(section):
    return [entry["name"] for entry in BENCHMARK[section]]


def test_benchmark_json_is_well_formed():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    every = names("workloads") + names("end_to_end") + names("per_layer")
    assert len(every) == len(set(every))
    assert all(NAME.fullmatch(name) for name in every)
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert all(0 < entry["bound"] <= 0.25 for entry in BENCHMARK["end_to_end"])
    setup = next(e for e in BENCHMARK["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


def test_compare_judges_only_what_the_benchmark_names():
    # The bounds compare enforces are the file's; the one constant of its own
    # (same seed, simulated clock) may only tighten them.
    for same_seed in (False, True):
        specs = list(compare._specs(BENCHMARK, same_seed))
        declared = {e["name"]: e for e in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
        for _section, name, better, bound in specs:
            assert better == declared[name]["better"]
            assert bound <= declared[name].get("bound", compare.SAME_SEED_BOUND)
    compared = {name for _, name, _, _ in specs}
    assert compared == set(names("end_to_end")) | {
        "e2e.latency_samples", "e2e.sim_slo_rate_mbps", "e2e.sim_outage_s", "e2e.failed_share"
    }


def test_workload_names_agree():
    import scenarios

    assert names("workloads") == list(bench.WORKLOADS) == list(scenarios.WORKLOADS)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_emitted_metrics_match_the_benchmark(workload):
    scale = 0.3 if workload == "fuzz_faults" else 0.1
    result = measure.measure(workload, seed=1, seconds=0.0, trace=True, scale=scale)
    assert result["correct"], result.get("problems")
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["end_to_end"]) == names("end_to_end")
    assert list(result["per_layer"]) == names("per_layer")
    units = {e["name"]: e["unit"] for e in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for name, entry in {**result["end_to_end"], **result["per_layer"]}.items():
        assert entry["unit"] == units[name], name
    assert all(entry["value"] > 0 for entry in result["end_to_end"].values())
    shares = [v["value"] for k, v in result["per_layer"].items() if k.endswith(".host_share")]
    assert sum(shares) == pytest.approx(1.0, abs=0.01)


def test_simulated_metrics_repeat_for_a_seed_and_move_with_it():
    def simulated(seed):
        result = measure.measure("merge_skew", seed, seconds=0.0, trace=False, scale=0.1)
        exact = {k: v["value"] for k, v in result["end_to_end"].items() if k.startswith("sim_")}
        exact.update({k: v["value"] for k, v in result["per_layer"].items()})
        return exact, result["detail"]["reference"]

    first, again, other = simulated(1), simulated(1), simulated(2)
    assert first == again
    assert first[0] != other[0] and first[1]["digest"] != other[1]["digest"]


def test_a_rep_that_diverges_from_the_stats_rep_fails_the_run(monkeypatch):
    real = measure.fingerprint
    calls = []

    def drifting(run):
        calls.append(run)
        found = real(run)
        return found if len(calls) == 1 else {**found, "events": found["events"] + 1}

    monkeypatch.setattr(measure, "fingerprint", drifting)
    result = measure.measure("merge_skew", seed=1, seconds=0.0, trace=False, scale=0.1)
    assert not result["correct"] and "stats rep" in result["problems"][0]


def failover_after(monkeypatch, tamper):
    """``smr_failover`` measured with the stats rep's findings tampered with."""
    real = measure.stats_rep

    def tampered(cls, seed, scale):
        run, recorder = real(cls, seed, scale)
        tamper(run, recorder)
        return run, recorder

    monkeypatch.setattr(measure, "stats_rep", tampered)
    return measure.measure("smr_failover", seed=1, seconds=0.0, trace=False, scale=0.1)


def test_a_crash_nobody_suspects_is_a_reported_failure(monkeypatch):
    result = failover_after(monkeypatch, lambda run, recorder: recorder.suspect_times.clear())
    assert not result["correct"] and "0 suspicions" in result["problems"][0]


def test_an_outage_that_never_ends_is_a_reported_failure(monkeypatch):
    # As if the crash came after the last send: no delivery ends the outage.
    result = failover_after(monkeypatch, lambda run, recorder: setattr(run, "crash_at", 1e9))
    assert not result["correct"] and "after the crash" in result["problems"][0]


def test_call_counts_repeat_and_cover_the_run_only():
    import layers
    import scenarios

    cls = scenarios.WORKLOADS["merge_skew"]
    first = layers.profiled_calls(cls(1, 0.1).advance)
    assert first == layers.profiled_calls(cls(1, 0.1).advance)
    # Building the deployment is set-up, not part of the counted span.
    with_setup = layers.profiled_calls(lambda: cls(1, 0.1).advance())
    assert first["core.control"] < with_setup["core.control"]
