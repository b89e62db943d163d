"""Verdicts of ``bench.py compare`` on synthetic result sets."""

import pytest

import compare

BENCHMARK = {
    "end_to_end": [
        {"name": "run_wall_norm_s", "unit": "s", "better": "lower", "bound": 0.10},
        {"name": "sim_goodput_ops_s", "unit": "ops/sim-s", "better": "higher", "bound": 0.05},
    ],
    "per_layer": [
        {"name": "e2e.failed_share", "unit": "fraction", "better": "lower"},
        {"name": "sim.kernel.events", "unit": "count", "better": "lower"},
    ],
}


def result_set(wall, goodput, quartiles=(0.99, 1.0, 1.01), seed=1, failed_share=0.0,
               seconds=12):
    return {"results": {"w": {
        "seed": seed,
        "seconds": seconds,
        "trace": False,
        "correct": True,
        "end_to_end": {
            "run_wall_norm_s": {"value": wall, "unit": "s"},
            "sim_goodput_ops_s": {"value": goodput, "unit": "ops/sim-s"},
        },
        "per_layer": {"e2e.failed_share": {"value": failed_share, "unit": "fraction"}},
        "detail": {"run_wall_norm_quartiles_s": list(quartiles)},
    }}}


def verdicts(base, new):
    return {row["metric"]: row["verdict"] for row in compare.compare(base, new, BENCHMARK)}


def test_within_worse_better():
    base = result_set(1.0, 1000.0)
    assert verdicts(base, result_set(1.05, 1000.0))["run_wall_norm_s"] == "within"
    assert verdicts(base, result_set(1.15, 1000.0))["run_wall_norm_s"] == "worse"
    assert verdicts(base, result_set(0.85, 1000.0))["run_wall_norm_s"] == "better"


def test_unresolved_when_the_base_spread_exceeds_the_bound():
    noisy = result_set(1.0, 1000.0, quartiles=(0.9, 1.0, 1.1))
    assert verdicts(noisy, result_set(1.5, 1000.0))["run_wall_norm_s"] == "unresolved"


def test_higher_is_better_and_the_same_seed_bound():
    base = result_set(1.0, 1000.0)
    # Same seed: simulated metrics repeat exactly, so 2 % down is a change.
    assert verdicts(base, result_set(1.0, 980.0))["sim_goodput_ops_s"] == "worse"
    # Another seed: only the benchmark's across-seed bound applies.
    assert verdicts(base, result_set(1.0, 980.0, seed=2))["sim_goodput_ops_s"] == "within"
    assert verdicts(base, result_set(1.0, 900.0, seed=2))["sim_goodput_ops_s"] == "worse"


def test_unbounded_e2e_metrics_are_held_to_the_same_seed_bound():
    base = result_set(1.0, 1000.0)
    assert verdicts(base, result_set(1.0, 1000.0))["e2e.failed_share"] == "within"
    assert verdicts(base, result_set(1.0, 1000.0, failed_share=1e-4))["e2e.failed_share"] == "worse"
    # BENCHMARK.json gives them no bound, so across seeds there is no row.
    assert "e2e.failed_share" not in verdicts(base, result_set(1.0, 1000.0, seed=2))


def test_every_compared_metric_and_direction_comes_from_the_benchmark():
    rows = compare.compare(result_set(1.0, 1000.0), result_set(1.0, 1000.0), BENCHMARK)
    assert [row["metric"] for row in rows] == [
        "run_wall_norm_s", "sim_goodput_ops_s", "e2e.failed_share"
    ]


def incorrect_set():
    return {"results": {"w": {"workload": "w", "seed": 1, "correct": False,
                              "problems": ["rep 0 != stats rep"], "attempted": 10, "failed": 0}}}


def test_a_failed_run_is_one_row_not_a_crash():
    good = result_set(1.0, 1000.0)
    assert verdicts(good, incorrect_set()) == {"correct": "worse"}
    assert verdicts(incorrect_set(), incorrect_set()) == {"correct": "worse"}
    assert verdicts(incorrect_set(), good) == {"correct": "better"}
    assert "correct" in compare.format_rows(compare.compare(good, incorrect_set(), BENCHMARK))


def test_sets_measured_for_different_lengths_are_refused():
    with pytest.raises(compare.Incomparable, match="seconds"):
        compare.compare(result_set(1.0, 1000.0), result_set(1.0, 1000.0, seconds=5), BENCHMARK)


def test_rows_carry_the_ratio_with_its_base():
    row = compare.compare(result_set(2.0, 1000.0), result_set(2.2, 1000.0), BENCHMARK)[0]
    assert (row["base"], row["new"], round(row["ratio"], 3)) == (2.0, 2.2, 1.1)
    assert "new/base" in compare.format_rows([row])
