#!/usr/bin/env python3
"""Paired runs of the repo benchmark in two checkouts (choosing-metrics §8).

    scripts/bench_pairs.py A_DIR B_DIR [--pairs 10] [--workload W] [--seed N]
                                       [--seconds S] [--layers]

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

``--layers`` adds the attribution of those tables: one more run per side
with ``--trace 1`` and, per workload, every layer's ``host_share`` on both
sides and every per-layer count whose value differs between them (all of
``per_layer`` but the host measurements ``host.*`` and ``*.host_share``).
The stats rep's counts and each ``repro`` layer's ``cProfile`` ``*.calls``
repeat exactly for one seed and one code; ``python.other.calls`` is listed
but does not, see ``LAUNCH_DEPENDENT``.

It imports nothing from ``benchmarks/e2e`` and writes nothing into either
checkout. Exit status: 0 when every run was correct — and, when A and B
are the same directory, ``--layers`` found no differing count that repeats
— 1 otherwise.
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
# Counts that differ between two launches of one code, so never a finding.
# ``pstats`` keys a function by (file, line, name) and every dataclass
# ``__init__`` is ("<string>", 2, "__init__"): of the twelve a ring run calls,
# the one ``python.other.calls`` keeps is the last in cProfile's table, which
# is ordered by code-object address.
LAUNCH_DEPENDENT = frozenset({"python.other.calls"})


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


def layers_report(workload: str, a: dict, b: dict) -> tuple[str, int]:
    """Markdown for one workload's traced runs; how many repeatable counts differ."""
    def value(side: dict, name: str) -> float | None:
        return side[name]["value"] if name in side else None

    def cell(v: float | None) -> str:
        if v is None:
            return "-"
        return str(int(v)) if v == int(v) else f"{v:.6g}"

    names = list(dict.fromkeys([*a, *b]))
    shares = [n for n in names if n.endswith(".host_share")]
    lines = [
        f"`{workload}`: `host_share` (%) of each layer, one `--trace 1` run per side:",
        "",
        "| layer | A | B |",
        "|---|---:|---:|",
    ]
    for name in shares:
        a_pct, b_pct = (f"{100 * s[name]['value']:.1f}" if name in s else "-" for s in (a, b))
        lines.append(f"| `{name.removesuffix('.host_share')}` | {a_pct} | {b_pct} |")
    differing = [
        n for n in names
        if n not in shares and not n.startswith("host.")
        and value(a, n) != value(b, n)
    ]
    if not differing:
        lines += ["", f"`{workload}`: no per-layer count differs between A and B."]
        return "\n".join(lines), 0
    lines += [
        "",
        f"`{workload}`: per-layer counts that differ (every other one is identical):",
        "",
        "| metric | A | B | B/A |",
        "|---|---:|---:|---:|",
    ]
    for name in differing:
        va, vb = value(a, name), value(b, name)
        ratio = f"{vb / va:.3f}" if va and vb is not None else "-"
        note = " (launch-dependent)" if name in LAUNCH_DEPENDENT else ""
        lines.append(f"| `{name}`{note} | {cell(va)} | {cell(vb)} | {ratio} |")
    return "\n".join(lines), len(set(differing) - LAUNCH_DEPENDENT)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_dir", type=Path, help="checkout of the parent commit")
    parser.add_argument("b_dir", type=Path, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default=None, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: the benchmark's own)")
    parser.add_argument("--layers", action="store_true",
                        help="one more --trace 1 run per side: host shares and differing counts")
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
    traced: dict[str, dict] = {}  # side -> workload -> document
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
        if args.layers:
            for side in "AB":
                print(f"traced run: {side} = {checkouts[side]}", file=sys.stderr, flush=True)
                traced[side] = run_once(
                    checkouts[side], [*passthrough, "--trace", "1"], Path(scratch) / "run.json"
                )
                all_correct &= all(doc["correct"] for doc in traced[side].values())

    print(f"A = {checkouts['A']}, B = {checkouts['B']}, {args.pairs} pairs, "
          f"`bench.py run {' '.join(passthrough)}`; A ran first in odd pairs.\n")
    print("\n\n".join(table(metric, runs) for metric in benchmark["end_to_end"]))
    differing = 0
    for workload in traced.get("A", {}):
        text, count = layers_report(
            workload, traced["A"][workload]["per_layer"], traced["B"][workload]["per_layer"]
        )
        print("\n" + text)
        differing += count
    same_checkout = checkouts["A"] == checkouts["B"]
    return 0 if all_correct and not (same_checkout and differing) else 1


if __name__ == "__main__":
    sys.exit(main())
