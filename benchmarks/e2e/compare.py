"""Compare two result sets: one row per workload and metric.

Which metrics are compared, their direction and their bound all come from
BENCHMARK.json: every ``end_to_end`` entry, by its ``bound``, and the
``e2e.*`` entries of ``per_layer`` (the quantities of the issue's table
that the contract keeps out of ``end_to_end``), which the schema gives a
direction but no bound. Verdicts:

* ``worse`` / ``better`` — the new value is beyond the bound on that side;
* ``within`` — it is inside the bound;
* ``unresolved`` — the base's own per-rep spread (distance between the
  quartiles, as a share of the median) exceeds the bound, so a difference
  of that size cannot be told from noise;

A workload one of whose runs failed a correctness check has no metrics: it
gets the one row ``correct`` (1 or 0 on each side), ``worse`` when the new
run is the failed one.

The one rule that is not in BENCHMARK.json: simulated-clock metrics repeat
exactly for one seed and one code, so when both sets ran the same seed the
``sim_*`` and ``e2e.*`` metrics are held to ``SAME_SEED_BOUND`` instead of
the bound that has to cover the spread from seed to seed. Across seeds the
``e2e.*`` metrics have no bound and are left out.

Result sets measured for different ``--seconds`` or ``--trace`` are refused.
"""

from __future__ import annotations

import json
from pathlib import Path

SAME_SEED_BOUND = 0.01
UNBOUNDED_PREFIX = "e2e."


class Incomparable(Exception):
    """The two result sets were not measured the same way."""


def verdict(base: float, new: float, better: str, bound: float,
            base_spread: float = 0.0) -> str:
    """Classify ``new`` against ``base``; see the module docstring."""
    if base_spread > bound:
        return "unresolved"
    worse_by = new - base if better == "lower" else base - new
    if base == 0:
        return "within" if new == 0 else ("worse" if worse_by > 0 else "better")
    worse_by /= abs(base)
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within"


def _spread(result: dict, name: str) -> float:
    if name != "run_wall_norm_s":
        return 0.0
    q1, median, q3 = result["detail"]["run_wall_norm_quartiles_s"]
    return (q3 - q1) / median


def _specs(benchmark: dict, same_seed: bool):
    """(section, name, better, bound) of every compared metric."""
    for entry in benchmark["end_to_end"]:
        bound = entry["bound"]
        if same_seed and entry["name"].startswith("sim_"):
            bound = min(bound, SAME_SEED_BOUND)
        yield "end_to_end", entry["name"], entry["better"], bound
    if same_seed:
        for entry in benchmark["per_layer"]:
            if entry["name"].startswith(UNBOUNDED_PREFIX):
                yield "per_layer", entry["name"], entry["better"], SAME_SEED_BOUND


def _row(workload: str, metric: str, unit: str, base: float, new: float,
         bound: float, verdict_: str) -> dict:
    return {"workload": workload, "metric": metric, "unit": unit, "base": base, "new": new,
            "ratio": new / base if base else None, "bound": bound, "verdict": verdict_}


def compare(base_set: dict, new_set: dict, benchmark: dict) -> list[dict]:
    """Rows for every workload present in both result sets."""
    rows = []
    for workload, base in base_set["results"].items():
        new = new_set["results"].get(workload)
        if new is None:
            continue
        if not (base["correct"] and new["correct"]):
            # A failed run has no metrics: the one row says which side failed.
            rows.append(_row(workload, "correct", "bool", float(base["correct"]),
                             float(new["correct"]), 0.0,
                             "better" if new["correct"] else "worse"))
            continue
        for key in ("seconds", "trace"):
            if base[key] != new[key]:
                raise Incomparable(
                    f"{workload}: base measured with {key}={base[key]}, new with {new[key]}"
                )
        for section, name, better, bound in _specs(benchmark, base["seed"] == new["seed"]):
            if name not in base[section] or name not in new[section]:
                continue
            b, n = base[section][name]["value"], new[section][name]["value"]
            rows.append(_row(workload, name, base[section][name]["unit"], b, n, bound,
                             verdict(b, n, better, bound, _spread(base, name))))
    return rows


def format_rows(rows: list[dict]) -> str:
    lines = [
        f"{'workload':<20s} {'metric':<22s} {'base':>12s} {'new':>12s} "
        f"{'new/base':>9s} {'bound':>7s}  verdict"
    ]
    for row in rows:
        ratio = f"{row['ratio']:.4f}" if row["ratio"] is not None else "-"
        lines.append(
            f"{row['workload']:<20s} {row['metric']:<22s} {row['base']:>12.5g} "
            f"{row['new']:>12.5g} {ratio:>9s} {row['bound']:>7.3g}  {row['verdict']}"
        )
    return "\n".join(lines)


def compare_files(base_path: str, new_path: str, benchmark_path: Path) -> tuple[str, bool]:
    """The table for two result files, and whether any row is ``worse``."""
    base = json.loads(Path(base_path).read_text(encoding="utf-8"))
    new = json.loads(Path(new_path).read_text(encoding="utf-8"))
    benchmark = json.loads(benchmark_path.read_text(encoding="utf-8"))
    rows = compare(base, new, benchmark)
    return format_rows(rows), any(row["verdict"] == "worse" for row in rows)
