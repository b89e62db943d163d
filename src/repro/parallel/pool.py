"""Process-pool sweep executor: fan specs out, merge results in order.

The executor owns three promises:

* **determinism** — results come back in *spec order* no matter how many
  workers ran them or which finished first, so figure tables and
  CSV/JSON outputs are byte-identical for any ``--jobs``;
* **isolation** — every point runs in a fresh forked process with the
  parent's observability creation-hooks cleared, so a worker simulation
  is bit-for-bit the simulation an in-process call would have run;
* **robustness** — a worker that crashes or exceeds the per-task timeout
  is killed and respawned and its task retried exactly once; a second
  failure surfaces as a :class:`SweepError` naming the spec.

``run_specs`` is the high-level entry point (cache lookup, inline
fallback for ``jobs <= 1``, obs-record merging); :class:`SweepPool` is
the work-queue machinery underneath it.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from .cache import MISS, ResultCache
from .spec import Spec, execute_spec

__all__ = [
    "SweepError",
    "SweepPool",
    "run_specs",
    "run_sweep",
    "parse_jobs",
    "ExecutorConfig",
    "get_executor_config",
    "configure_executor",
]

# How often the parent wakes to look for dead/overdue workers while
# blocked on the result queue.
_POLL_S = 0.05
# Grace given to a worker to exit after its shutdown sentinel.
_JOIN_S = 2.0


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


def _worker_main(task_q, result_q) -> None:  # pragma: no cover - subprocess body
    _reset_inherited_observers()
    while True:
        item = task_q.get()
        if item is None:
            return
        index, spec, capture_obs = item
        try:
            result, records = execute_spec(spec, capture_obs)
        except BaseException as exc:
            message = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
            result_q.put((index, "error", message, None))
        else:
            result_q.put((index, "ok", result, records))


class _Worker:
    """One pool slot: a process, its private task queue, its current task."""

    __slots__ = ("task_q", "proc", "task", "started")

    def __init__(self, ctx, result_q):
        self.task_q = ctx.Queue()
        self.proc = ctx.Process(target=_worker_main, args=(self.task_q, result_q), daemon=True)
        self.proc.start()
        self.task: tuple[int, Spec] | None = None
        self.started = 0.0

    def dispatch(self, task: tuple[int, Spec], capture_obs: bool) -> None:
        self.task = task
        self.started = time.monotonic()
        self.task_q.put((task[0], task[1], capture_obs))

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
        self.proc.join(_JOIN_S)
        if self.proc.is_alive():  # pragma: no cover - stubborn process
            self.proc.kill()
            self.proc.join(_JOIN_S)

    def shutdown(self) -> None:
        try:
            self.task_q.put(None)
        except (OSError, ValueError):  # pragma: no cover - queue already gone
            pass
        self.proc.join(_JOIN_S)
        if self.proc.is_alive():
            self.kill()


class SweepPool:
    """Work-queue pool over ``jobs`` forked workers.

    ``run`` takes ``(index, spec)`` tasks and returns
    ``{index: (status, value, obs_records)}`` with ``status`` one of
    ``"ok"``/``"error"``. Tasks never dispatched (deadline reached) are
    simply absent from the mapping.
    """

    def __init__(
        self,
        jobs: int,
        task_timeout: float | None = None,
        capture_obs: bool = False,
    ):
        self.jobs = max(1, int(jobs))
        self.task_timeout = task_timeout
        self.capture_obs = capture_obs

    def run(
        self,
        tasks: list[tuple[int, Spec]],
        on_result: Callable[[int, str, Any], None] | None = None,
        deadline: float | None = None,
    ) -> dict[int, tuple[str, Any, Any]]:
        if not tasks:
            return {}
        ctx = multiprocessing.get_context()
        result_q = ctx.Queue()
        workers = [_Worker(ctx, result_q) for _ in range(min(self.jobs, len(tasks)))]
        pending: deque[tuple[int, Spec]] = deque(tasks)
        outcomes: dict[int, tuple[str, Any, Any]] = {}
        retried: set[int] = set()
        specs_by_index = {index: spec for index, spec in tasks}
        try:
            while pending or any(w.task is not None for w in workers):
                self._dispatch(workers, pending, ctx, result_q, deadline)
                if not any(w.task is not None for w in workers):
                    break  # deadline cleared the queue and nothing is running
                try:
                    index, status, value, records = result_q.get(timeout=_POLL_S)
                except queue_mod.Empty:
                    self._reap(workers, pending, outcomes, retried, ctx, result_q,
                               specs_by_index, on_result)
                    continue
                for worker in workers:
                    if worker.task is not None and worker.task[0] == index:
                        worker.task = None
                        break
                if index in outcomes:
                    continue  # late duplicate from a worker we already gave up on
                outcomes[index] = (status, value, records)
                if on_result is not None:
                    on_result(index, status, value)
        finally:
            for worker in workers:
                worker.shutdown()
            result_q.close()
            result_q.cancel_join_thread()
        return outcomes

    # ------------------------------------------------------------------
    def _dispatch(self, workers, pending, ctx, result_q, deadline) -> None:
        for slot, worker in enumerate(workers):
            if worker.task is not None or not pending:
                continue
            if deadline is not None and time.monotonic() >= deadline:
                pending.clear()
                return
            if not worker.proc.is_alive():
                worker.kill()
                workers[slot] = worker = _Worker(ctx, result_q)
            worker.dispatch(pending.popleft(), self.capture_obs)

    def _reap(self, workers, pending, outcomes, retried, ctx, result_q,
              specs_by_index, on_result) -> None:
        """Handle crashed and overdue workers; retry their task once."""
        now = time.monotonic()
        for slot, worker in enumerate(workers):
            if worker.task is None:
                continue
            crashed = not worker.proc.is_alive()
            overdue = (
                self.task_timeout is not None
                and now - worker.started > self.task_timeout
            )
            if not crashed and not overdue:
                continue
            index, spec = worker.task
            worker.task = None
            worker.kill()
            workers[slot] = _Worker(ctx, result_q)
            if index in outcomes:
                continue  # its result arrived before the worker died
            if index not in retried:
                retried.add(index)
                pending.appendleft((index, spec))
                continue
            reason = "timed out" if overdue else "worker crashed"
            timeout_note = (
                f" after {self.task_timeout:g}s" if overdue and self.task_timeout else ""
            )
            outcomes[index] = (
                "error",
                f"{reason}{timeout_note} (after one retry): {spec.display()}",
                None,
            )
            if on_result is not None:
                on_result(index, "error", outcomes[index][1])


# ---------------------------------------------------------------------------
# High-level entry point
# ---------------------------------------------------------------------------
def run_specs(
    specs: list[Spec],
    jobs: int | str | None = 1,
    cache: ResultCache | None = None,
    task_timeout: float | None = None,
    obs_sink: Callable[[list[dict], str], None] | None = None,
    time_budget: float | None = None,
    on_result: Callable[[int, str, Any], None] | None = None,
) -> list[Any]:
    """Run every spec; return results in spec order.

    * ``jobs`` — worker processes (``'auto'`` = CPU count); ``1`` runs
      inline in this process, which is still byte-identical because every
      runner builds a fresh simulator.
    * ``cache`` — a :class:`ResultCache`; hits skip execution entirely
      and completed points are stored back atomically.
    * ``obs_sink(records, origin)`` — receives each point's observability
      summary records (pool mode; inline runs are observed directly by
      whatever session is active in this process).
    * ``time_budget`` — wall seconds after which no *new* point starts;
      never-started points stay ``None`` in the result list.
    * ``on_result(index, status, value)`` — progress callback; ``status``
      is ``"cached"``/``"ok"``.

    Raises :class:`SweepError` if any point fails (pool mode) — inline
    failures propagate their original exception.
    """
    jobs = parse_jobs(jobs if jobs is not None else "auto")
    results: list[Any] = [None] * len(specs)
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    capture_obs = obs_sink is not None

    to_run: list[tuple[int, Spec]] = []
    for index, spec in enumerate(specs):
        if cache is not None and spec.cacheable:
            hit = cache.get(spec)
            if hit is not MISS:
                results[index] = hit
                if on_result is not None:
                    on_result(index, "cached", hit)
                continue
        to_run.append((index, spec))

    if not to_run:
        return results

    if jobs <= 1:
        for index, spec in to_run:
            if deadline is not None and time.monotonic() >= deadline:
                break
            result, records = execute_spec(spec, capture_obs)
            results[index] = result
            if cache is not None and spec.cacheable:
                cache.put(spec, result)
            if obs_sink is not None and records:
                obs_sink(records, f"spec:{index}")
            if on_result is not None:
                on_result(index, "ok", result)
        return results

    pool = SweepPool(jobs, task_timeout=task_timeout, capture_obs=capture_obs)
    outcomes = pool.run(to_run, on_result=on_result, deadline=deadline)
    failures: list[tuple[Spec, str]] = []
    for index, spec in to_run:
        outcome = outcomes.get(index)
        if outcome is None:
            continue  # deadline: never started
        status, value, records = outcome
        if status != "ok":
            failures.append((spec, str(value)))
            continue
        results[index] = value
        if cache is not None and spec.cacheable:
            cache.put(spec, value)
        if obs_sink is not None and records:
            obs_sink(records, f"spec:{index}")
    if failures:
        raise SweepError(failures)
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
    task_timeout: float | None = None


_config = ExecutorConfig()


def get_executor_config() -> ExecutorConfig:
    return _config


def configure_executor(**overrides: Any) -> Callable[[], None]:
    """Set executor config fields; returns a zero-arg restore callable."""
    global _config
    previous = _config
    merged = ExecutorConfig(
        jobs=previous.jobs,
        cache=previous.cache,
        obs_sink=previous.obs_sink,
        task_timeout=previous.task_timeout,
    )
    for name, value in overrides.items():
        if not hasattr(merged, name):
            raise TypeError(f"unknown executor config field {name!r}")
        setattr(merged, name, value)
    _config = merged

    def restore() -> None:
        global _config
        _config = previous

    return restore


def run_sweep(specs: list[Spec]) -> list[Any]:
    """Run a sweep under the process-wide executor configuration."""
    cfg = _config
    return run_specs(
        specs,
        jobs=cfg.jobs,
        cache=cfg.cache,
        obs_sink=cfg.obs_sink,
        task_timeout=cfg.task_timeout,
    )
