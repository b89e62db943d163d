#!/usr/bin/env python3
"""Paired runs of the repo benchmark in two checkouts (choosing-metrics §8).

    scripts/bench_pairs.py A_DIR B_DIR [--pairs 10] [--workload W] [--seed N]
                                       [--seconds S]

Runs the unmodified ``python3 benchmarks/e2e/bench.py run`` of each
checkout, in that checkout, ``--pairs`` times each, alternating which
side goes first (A in pairs 1, 3, …, B in pairs 2, 4, …). A is the parent
and B the change. For every end-to-end metric of A's ``BENCHMARK.json``
it prints one markdown table — the format of ``docs/simulation.md``
"Ablations" — with, per workload, each side's runs in run order, median,
quartiles, the pairs B won and the verdict:

* ``better`` / ``worse``: one side won at least nine tenths of the pairs
  (ties count for neither) and the medians are further apart than the
  distance between the quartiles of A's own runs;
* ``same``: every run of both sides gave the same value;
* ``no claim``: anything else.

It imports nothing from ``benchmarks/e2e`` and writes nothing into either
checkout. Exit status: 0 when every run was correct, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

WIN_SHARE = 0.9


def run_once(checkout: Path, passthrough: list[str], out: Path) -> dict:
    """One ``bench.py run`` in ``checkout``; its result set, by workload."""
    command = [sys.executable, "benchmarks/e2e/bench.py", "run", "--out", str(out), *passthrough]
    done = subprocess.run(command, cwd=checkout, stdout=subprocess.DEVNULL)
    if not out.exists():
        raise SystemExit(f"bench_pairs: {checkout}: bench.py exited with {done.returncode}, no results")
    results = json.loads(out.read_text(encoding="utf-8"))["results"]
    out.unlink()
    return results


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(a: list[float], b: list[float], lower_is_better: bool) -> tuple[int, int, str]:
    """(pairs B won, pairs A won, verdict) for one metric on one workload."""
    sign = 1 if lower_is_better else -1
    b_wins = sum(sign * y < sign * x for x, y in zip(a, b))
    a_wins = sum(sign * x < sign * y for x, y in zip(a, b))
    if a == b and len(set(a)) == 1:
        return b_wins, a_wins, "same"
    q1, q3 = quartiles(a)
    apart = abs(statistics.median(b) - statistics.median(a)) > q3 - q1
    need = WIN_SHARE * len(a)
    if apart and b_wins >= need:
        return b_wins, a_wins, "better"
    if apart and a_wins >= need:
        return b_wins, a_wins, "worse"
    return b_wins, a_wins, "no claim"


def summary(values: list[float]) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def table(metric: dict, runs: dict[str, dict[str, list[dict]]]) -> str:
    """The markdown table of one end-to-end metric, one row pair per workload."""
    name = metric["name"]
    lines = [
        f"`{name}` ({metric['unit']}, {metric['better']} is better):",
        "",
        "| workload | side | runs | median [q1, q3] | B/A | pairs won by B | verdict |",
        "|---|---|---|---|---|---|---|",
    ]
    for workload, sides in runs.items():
        if not all(doc["correct"] for docs in sides.values() for doc in docs):
            lines.append(f"| `{workload}` | | incorrect run: see stderr | | | | invalid |")
            continue
        a, b = ([doc["end_to_end"][name]["value"] for doc in sides[side]] for side in "AB")
        b_wins, a_wins, word = verdict(a, b, metric["better"] == "lower")
        median_a = statistics.median(a)
        ratio = f"{statistics.median(b) / median_a:.3f}" if median_a else "-"
        row = " ".join(f"{v:.4g}" for v in a)
        lines.append(f"| `{workload}` | A | {row} | {summary(a)} | | | |")
        row = " ".join(f"{v:.4g}" for v in b)
        lines.append(
            f"| | B | {row} | {summary(b)} | {ratio} | {b_wins}/{len(a)} (A {a_wins}) | {word} |"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_dir", type=Path, help="checkout of the parent commit")
    parser.add_argument("b_dir", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default=None, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: the benchmark's own)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"A": args.a_dir.resolve(), "B": args.b_dir.resolve()}
    passthrough = []
    for flag in ("workload", "seed", "seconds"):
        if getattr(args, flag) is not None:
            passthrough += [f"--{flag}", str(getattr(args, flag))]
    benchmark = json.loads((checkouts["A"] / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs: dict[str, dict[str, list[dict]]] = {}  # workload -> side -> one document per pair
    all_correct = True
    with tempfile.TemporaryDirectory(prefix="bench_pairs.") as scratch:
        for pair in range(args.pairs):
            for side in ("AB", "BA")[pair % 2]:
                print(f"pair {pair + 1}/{args.pairs}: {side} = {checkouts[side]}",
                      file=sys.stderr, flush=True)
                results = run_once(checkouts[side], passthrough, Path(scratch) / "run.json")
                for workload, document in results.items():
                    runs.setdefault(workload, {"A": [], "B": []})[side].append(document)
                    if not document["correct"] or document["failed"]:
                        all_correct = False
                        print(f"pair {pair + 1} {side} {workload}: correct={document['correct']} "
                              f"failed={document['failed']}/{document['attempted']}",
                              file=sys.stderr)

    print(f"A = {checkouts['A']}, B = {checkouts['B']}, {args.pairs} pairs, "
          f"`bench.py run {' '.join(passthrough)}`; A ran first in odd pairs.\n")
    print("\n\n".join(table(metric, runs) for metric in benchmark["end_to_end"]))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
