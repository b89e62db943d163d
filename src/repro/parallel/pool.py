"""Sweep executor: fan specs out over worker processes, merge in order.

The executor owns three promises:

* **determinism** — results come back in *spec order* no matter how many
  workers ran them or which finished first, so figure tables and
  CSV/JSON outputs are byte-identical for any ``--jobs``;
* **isolation** — every worker process starts with the parent's
  observability creation-hooks cleared, so a worker simulation is
  bit-for-bit the simulation an in-process call would have run;
* **robustness** — a point whose worker dies is retried exactly once, on
  a worker of its own; a second death surfaces as a :class:`SweepError`
  naming exactly that spec.

``run_specs`` is the entry point (cache lookup, inline path for
``jobs <= 1``, obs-record merging); the processes underneath are a
:class:`concurrent.futures.ProcessPoolExecutor`.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Callable

from .cache import MISS, ResultCache
from .spec import Spec, execute_spec

__all__ = [
    "SweepError",
    "run_specs",
    "run_sweep",
    "parse_jobs",
    "ExecutorConfig",
    "get_executor_config",
    "configure_executor",
]


class SweepError(RuntimeError):
    """One or more sweep points failed after their retry."""

    def __init__(self, failures: list[tuple[Spec, str]]):
        self.failures = failures
        lines = [f"{len(failures)} sweep point(s) failed:"]
        for spec, message in failures:
            first = message.strip().splitlines()[0] if message else "unknown error"
            lines.append(f"  - {spec.display()}: {first}")
        super().__init__("\n".join(lines))


def parse_jobs(value: int | str | None) -> int:
    """Normalize a ``--jobs`` value: ``'auto'``/None -> CPU count, else int >= 1."""
    if value is None:
        return os.cpu_count() or 1
    if isinstance(value, str):
        if value.strip().lower() == "auto":
            return os.cpu_count() or 1
        value = int(value)
    if value < 1:
        raise ValueError(f"--jobs must be >= 1 or 'auto', got {value}")
    return value


def _reset_inherited_observers() -> None:
    """Clear creation observers a forked worker inherited from the parent.

    The parent may be inside an :class:`~repro.obs.session.ObsSession`
    (``--emit-metrics``); its hooks would attach the *parent's* probe bus
    to every simulator the worker builds. The worker instead runs its own
    collecting session when asked to (see ``execute_spec``), so the
    inherited hooks are cleared to keep worker simulations identical to
    in-process ones.
    """
    from ..metrics import registry
    from ..sim import network, simulator

    simulator._simulator_observers.clear()
    network._network_observers.clear()
    registry._registry_observers.clear()


def _run_in_worker(spec: Spec, capture_obs: bool):  # pragma: no cover - subprocess body
    """One point in a worker: ``("ok", result, records)`` or ``("error", text, None)``.

    The failure travels as text so the parent never has to unpickle an
    arbitrary exception; ``SystemExit`` and friends are reported the same
    way rather than re-raised in the parent.
    """
    try:
        return ("ok", *execute_spec(spec, capture_obs))
    except BaseException as exc:
        return "error", f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}", None


def _past(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() >= deadline


def _drain(
    batch: deque[tuple[int, Spec]],
    width: int,
    capture_obs: bool,
    deadline: float | None,
    settle: Callable[[int, Spec, str, Any, Any], None],
) -> list[tuple[int, Spec]]:
    """Run ``batch`` on one executor, in order, ``width`` points in flight.

    Each completed point is handed to ``settle`` in this process. No point
    starts once ``deadline`` has passed (the rest of ``batch`` is dropped)
    or once a worker has died; returns, in index order, the points that
    were in flight when one did.

    The executor uses the platform's start method, as the sweep always
    has (fork on Linux): its workers all start at the first ``submit``,
    before its manager thread does, and the ``with`` block joins that
    thread before the next executor is built, so no fork ever happens in
    a process with a second thread.
    """
    in_flight: dict[Any, tuple[int, Spec]] = {}
    unfinished: list[tuple[int, Spec]] = []
    broken = False
    with ProcessPoolExecutor(width, initializer=_reset_inherited_observers) as pool:
        while True:
            while batch and not broken and len(in_flight) < width:
                if _past(deadline):
                    batch.clear()
                    break
                try:
                    future = pool.submit(_run_in_worker, batch[0][1], capture_obs)
                except BrokenProcessPool:
                    broken = True
                    break
                in_flight[future] = batch.popleft()
            if not in_flight:
                return sorted(unfinished, key=lambda task: task[0])
            for future in wait(in_flight, return_when=FIRST_COMPLETED).done:
                index, spec = in_flight.pop(future)
                try:
                    outcome = future.result()
                except BrokenProcessPool:
                    broken = True
                    unfinished.append((index, spec))
                else:
                    settle(index, spec, *outcome)


def _fan_out(
    tasks: list[tuple[int, Spec]],
    jobs: int,
    capture_obs: bool,
    deadline: float | None,
    settle: Callable[[int, Spec, str, Any, Any], None],
) -> None:
    """Run ``tasks`` over ``jobs`` worker processes, retrying dead workers' points.

    A dead worker breaks its executor and takes the in-flight siblings
    down with it, so every unfinished point is retried alone on a
    one-worker executor: a second death is charged to that point and to
    no other. The rest of the sweep then resumes on a fresh pool. (Past
    the deadline ``_drain`` starts nothing, retries included.)
    """
    pending = deque(tasks)
    while pending:
        for index, spec in _drain(pending, min(jobs, len(pending)), capture_obs, deadline, settle):
            if _drain(deque([(index, spec)]), 1, capture_obs, deadline, settle):
                settle(index, spec, "error",
                       f"worker crashed (after one retry): {spec.display()}", None)


# ---------------------------------------------------------------------------
# High-level entry point
# ---------------------------------------------------------------------------
def run_specs(
    specs: list[Spec],
    jobs: int | str | None = 1,
    cache: ResultCache | None = None,
    obs_sink: Callable[[list[dict], str], None] | None = None,
    time_budget: float | None = None,
    on_result: Callable[[int, str, Any], None] | None = None,
) -> list[Any]:
    """Run every spec; return results in spec order.

    * ``jobs`` — worker processes (``'auto'`` = CPU count); ``1`` runs
      inline in this process, which is still byte-identical because every
      runner builds a fresh simulator.
    * ``cache`` — a :class:`ResultCache`; hits skip execution entirely
      and each point is stored back atomically, by this process, as soon
      as it completes — an interrupted sweep resumes where it stopped.
    * ``obs_sink(records, origin)`` — receives each point's observability
      summary records as ``spec:<index>``, in spec order (pool mode;
      inline runs are observed directly by whatever session is active in
      this process).
    * ``time_budget`` — wall seconds after which no *new* point starts;
      never-started points stay ``None`` in the result list.
    * ``on_result(index, status, value)`` — progress callback; ``status``
      is ``"cached"``/``"ok"``, or ``"error"`` with the failure text.

    Raises :class:`SweepError` if any point fails (pool mode) — inline
    failures propagate their original exception.
    """
    jobs = parse_jobs(jobs if jobs is not None else "auto")
    results: list[Any] = [None] * len(specs)
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    capture_obs = obs_sink is not None

    to_run: list[tuple[int, Spec]] = []
    for index, spec in enumerate(specs):
        if cache is not None:
            hit = cache.get(spec)
            if hit is not MISS:
                results[index] = hit
                if on_result is not None:
                    on_result(index, "cached", hit)
                continue
        to_run.append((index, spec))

    failures: dict[int, tuple[Spec, str]] = {}
    obs_records: dict[int, list[dict]] = {}

    def flush_obs() -> None:
        for index in sorted(obs_records):
            obs_sink(obs_records.pop(index), f"spec:{index}")

    def settle(index: int, spec: Spec, status: str, value: Any, records: Any) -> None:
        if status == "ok":
            results[index] = value
            if cache is not None:
                cache.put(spec, value)
            if records:
                obs_records[index] = records
        else:
            failures[index] = (spec, str(value))
        if on_result is not None:
            on_result(index, status, value)

    if jobs <= 1:
        for index, spec in to_run:
            if _past(deadline):
                break
            settle(index, spec, "ok", *execute_spec(spec, capture_obs))
            flush_obs()
    elif to_run:
        _fan_out(to_run, jobs, capture_obs, deadline, settle)
        flush_obs()
    if failures:
        raise SweepError([failures[index] for index in sorted(failures)])
    return results


# ---------------------------------------------------------------------------
# Process-wide executor configuration (what the CLI flags set)
# ---------------------------------------------------------------------------
@dataclass
class ExecutorConfig:
    """How ``run_sweep`` (the figures' entry point) should execute.

    Library default is serial-inline with no cache, so pytest benchmarks
    and direct calls behave exactly as before this module existed. The
    CLI overrides it from ``--jobs`` / ``--no-cache`` for its run.
    """

    jobs: int = 1
    cache: ResultCache | None = None
    obs_sink: Callable[[list[dict], str], None] | None = None


_config = ExecutorConfig()


def get_executor_config() -> ExecutorConfig:
    return _config


def configure_executor(**overrides: Any) -> Callable[[], None]:
    """Set executor config fields; returns a zero-arg restore callable."""
    global _config
    previous = _config
    _config = replace(previous, **overrides)

    def restore() -> None:
        global _config
        _config = previous

    return restore


def run_sweep(specs: list[Spec]) -> list[Any]:
    """Run a sweep under the process-wide executor configuration."""
    cfg = _config
    return run_specs(specs, jobs=cfg.jobs, cache=cfg.cache, obs_sink=cfg.obs_sink)
