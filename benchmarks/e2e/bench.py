#!/usr/bin/env python3
"""The repository benchmark: five workloads, two clocks, per-layer profile.

    python3 benchmarks/e2e/bench.py run [--workload W] [--seed S] [--trace 0|1]
                                        [--seconds N] [--out F]
    python3 benchmarks/e2e/bench.py compare BASE.json NEW.json

``run`` measures each selected workload (all five by default), one after
another, each in a fresh single-threaded subprocess with
``PYTHONHASHSEED=0``. ``--trace 0`` (the default) gives the end-to-end
metrics; ``--trace 1`` is the separate traced run that gives the per-layer
metrics. These are the flags the benchmark driver passes, so there is no
second spelling of either run. ``--seconds`` defaults to ``run_seconds`` of
BENCHMARK.json (``TRACE_SECONDS`` when tracing). ``run`` prints every metric
by name with its unit and, last, one JSON object per workload with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; it exits non-zero
when a correctness check fails. ``compare`` prints one row per workload and
metric with the verdict against the bounds of BENCHMARK.json.

README.md in this directory has the glossary and the method.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("ring1_open", "rings4_disk_closed", "merge_skew", "smr_failover", "fuzz_faults")
CHILD_TIMEOUT_S = 170
# A traced run needs this long for 3 000 sampler ticks (250 Hz of CPU time,
# 70 % of the budget under the sampler).
TRACE_SECONDS = 30


def child_main(args: argparse.Namespace) -> int:
    """Measure one workload in this process; print its result document."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import measure

    document = measure.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), folded_path=args.folded
    )
    print(json.dumps(document))
    return 0


def measure_in_subprocess(workload: str, args: argparse.Namespace) -> dict | None:
    """One workload in a fresh interpreter; None when the child failed."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "_measure",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.out and args.trace:
        command += ["--folded", str(Path(args.out).with_suffix(f".{workload}.folded"))]
    try:
        done = subprocess.run(
            command,
            env={**os.environ, "PYTHONHASHSEED": "0"},
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"{workload}: measuring process exited with {done.returncode}", file=sys.stderr)
        return None
    return json.loads(done.stdout.splitlines()[-1])


def report(result: dict, section: str) -> str:
    """The contract line for one workload, after a table of its metrics."""
    if not result["correct"]:
        for problem in result["problems"]:
            print(f"{result['workload']}: INCORRECT: {problem}", file=sys.stderr)
        metrics = {}
    else:
        metrics = result[section]
        print(f"{result['workload']} (seed {result['seed']}):")
        for name, entry in metrics.items():
            print(f"  {name:<44s} {entry['value']:>16.6g} {entry['unit']}")
        if "top_host_layers" in result["detail"]:
            print(f"  top host-time layers: {', '.join(result['detail']['top_host_layers'])}")
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def run_main(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench.py: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = TRACE_SECONDS if args.trace else benchmark["run_seconds"]
    selected = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for workload in selected:
        result = measure_in_subprocess(workload, args)
        if result is None:
            return 1
        results[workload] = result
    if args.out:
        Path(args.out).write_text(
            json.dumps({"schema": 1, "results": results}, indent=1) + "\n",
            encoding="utf-8",
        )
    section = "per_layer" if args.trace else "end_to_end"
    # Tables first, the contract lines last (one per workload).
    lines = [report(result, section) for result in results.values()]
    print("\n".join(lines))
    return 0 if all(r["correct"] for r in results.values()) else 1


def compare_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(HERE))
    import compare

    try:
        table, any_worse = compare.compare_files(args.base, args.new, ROOT / "BENCHMARK.json")
    except compare.Incomparable as reason:
        print(f"bench.py compare: {reason}", file=sys.stderr)
        return 2
    print(table)
    return 1 if any_worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("run", run_main), ("_measure", child_main)):
        sub = commands.add_parser(name)
        sub.add_argument("--workload", choices=WORKLOADS, required=name == "_measure")
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--seconds", type=float, default=None,
                         help="wall seconds of timed reps per workload")
        sub.add_argument("--trace", type=int, choices=(0, 1), default=0,
                         help="1: the traced run, per-layer metrics")
        if name == "_measure":
            sub.add_argument("--folded", default=None)
        else:
            sub.add_argument("--out", default=None, help="write the result set here")
        sub.set_defaults(handler=handler)
    sub = commands.add_parser("compare")
    sub.add_argument("base")
    sub.add_argument("new")
    sub.set_defaults(handler=compare_main)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
