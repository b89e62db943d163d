"""Command-line interface: regenerate paper figures without pytest.

Usage::

    python -m repro list               # available experiments
    python -m repro fig1               # run one figure, print its table
    python -m repro fig5 fig6          # several in sequence
    python -m repro all                # the whole evaluation
    python -m repro fig1 --out results # also persist tables as text files
    python -m repro all --jobs auto    # fan sweep points across all cores
    python -m repro fig5 --no-cache    # recompute even cached points
    python -m repro fig5 --cache-clear # drop results/.cache first

Sweep points fan out across ``--jobs`` worker processes and completed
points are memoized in ``results/.cache`` keyed by spec + code version;
outputs are byte-identical for any job count (see docs/simulation.md,
"Parallel execution & result caching").

The same experiment definitions back the pytest benchmarks (which add the
shape assertions); see ``repro.bench.figures``.

``python -m repro fuzz ...`` dispatches to the simulation fuzzer instead
(randomized fault schedules under safety oracles — see ``repro.check``
and docs/fuzzing.md); run ``python -m repro fuzz --help`` for its options.

Wall-clock performance is measured by the repo benchmark, not by this
CLI: ``python3 benchmarks/e2e/bench.py run|compare`` (``BENCHMARK.json``;
docs/simulation.md, "Performance").

``python -m repro model ...`` prints the analytic model's capacity plan
for an arbitrary deployment (works at scales the simulator cannot run,
e.g. ``--rings 64 --clients 1000000``), and ``python -m repro validate``
cross-checks the model's predictions against simulator measurements —
see ``repro.model`` and docs/model.md.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .bench.figures import FIGURES, run_figure

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Multi-Ring Paxos paper's evaluation figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment names (see 'list'), or 'all', or 'list'",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="also write each table to DIR/<name>.txt",
    )
    parser.add_argument(
        "--emit-metrics",
        metavar="FILE",
        default=None,
        help="write a JSONL observability trace (profile rows + metric "
        "snapshots for every simulator the run creates) to FILE",
    )
    parser.add_argument(
        "--jobs",
        metavar="N",
        default="auto",
        help="worker processes for sweep points: a number or 'auto' "
        "(CPU count, the default); 1 runs everything in-process",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shorten measurement windows on experiments that support it "
        "(currently: geo, clients) — CI smoke mode",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk result cache",
    )
    parser.add_argument(
        "--cache-clear",
        action="store_true",
        help="delete results/.cache before running",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fuzz":
        # The fuzzer has its own option set; hand everything after the
        # subcommand to its parser (see repro.check.driver.fuzz_main).
        from .check.driver import fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] == "model":
        # Analytic capacity planner (repro.model.capacity) — closed form,
        # so it answers for deployments far beyond simulator scale.
        from .model.capacity import model_main

        return model_main(argv[1:])
    if argv and argv[0] == "validate":
        # Model-vs-sim cross-checks (repro.model.validate).
        from .model.validate import validate_main

        return validate_main(argv[1:])
    args = _build_parser().parse_args(argv)
    from .parallel import ResultCache, configure_executor, parse_jobs

    try:
        jobs = parse_jobs(args.jobs)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    names = list(args.experiments)
    if names == ["list"]:
        print("available experiments:")
        for name, fn in sorted(FIGURES.items()):
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"  {name:10s} {doc}")
        return 0
    if names == ["all"]:
        names = sorted(FIGURES)
    unknown = [n for n in names if n not in FIGURES]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(FIGURES))}", file=sys.stderr)
        return 2
    session = None
    if args.emit_metrics:
        from .obs import ObsSession

        # Fail fast on an unwritable path: the trace is only flushed at the
        # end, and discovering a typo after minutes of simulation loses it.
        try:
            with open(args.emit_metrics, "w", encoding="utf-8"):
                pass
        except OSError as exc:
            print(f"cannot write metrics trace {args.emit_metrics!r}: {exc}", file=sys.stderr)
            return 2
        session = ObsSession(emit_path=args.emit_metrics)
        session.__enter__()
    if args.cache_clear:
        removed = ResultCache().clear()
        print(f"[cache cleared: {removed} entries]")
    cache = None if args.no_cache else ResultCache()
    restore = configure_executor(
        jobs=jobs,
        cache=cache,
        obs_sink=session.absorb if session is not None else None,
    )
    try:
        for name in names:
            started = time.time()
            before = cache.stats() if cache is not None else None
            _, table = run_figure(name, quick=args.quick)
            elapsed = time.time() - started
            print()
            print(table)
            print(f"[{name} completed in {elapsed:.1f}s]")
            if cache is not None and before is not None:
                after = cache.stats()
                print(
                    f"[cache: {after['hits'] - before['hits']} hits, "
                    f"{after['stores'] - before['stores']} new entries]"
                )
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                path = os.path.join(args.out, f"{name}.txt")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(table + "\n")
                print(f"[written to {path}]")
    finally:
        restore()
        if session is not None:
            session.__exit__(None, None, None)
            for sim_index, row in session.saturation_summary():
                print(
                    f"[sim {sim_index}: saturated resource {row.component} "
                    f"({row.utilization * 100:.1f}% busy)]"
                )
            print(
                f"[observability trace: {session.writer.records_written} "
                f"records written to {args.emit_metrics}]"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
