"""The sweep executor: ordering, retry, isolation, budget, config plumbing.

Worker targets live at module level so a forked worker can resolve them
by dotted path (``tests.unit.test_parallel_pool:<name>``).
"""

import os
import time

import pytest

from repro.parallel import (
    Spec,
    SweepError,
    canonical_value,
    configure_executor,
    get_executor_config,
    parse_jobs,
    resolve_callable,
    run_specs,
    run_sweep,
)

_HERE = "tests.unit.test_parallel_pool"


# ---------------------------------------------------------------------------
# Worker targets
# ---------------------------------------------------------------------------
def echo(value):
    return value


def slow_echo(value, seconds):
    time.sleep(seconds)
    return value


def crash_hard():  # killed without a Python exception
    os._exit(13)


def crash_until_flag(flag_path):
    """Dies on the first attempt, succeeds on the retry (the flag file is
    cross-process state marking that one attempt already happened)."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w"):
            pass
        os._exit(13)
    return "recovered"


def boom():
    raise ValueError("boom")


def logged(log_path, value, seconds, crash=False):
    """Records that it started (one line per start, any process), works
    for ``seconds``, then returns ``value`` or dies."""
    with open(log_path, "a") as fh:
        fh.write(f"{value}\n")
    time.sleep(seconds)
    if crash:
        os._exit(13)
    return value


_POINT = {"offered_mbps": 50.0, "durable": False, "duration": 0.2, "warmup": 0.1}


# ---------------------------------------------------------------------------
# Spec plumbing
# ---------------------------------------------------------------------------
def test_canonical_value_normalizes_tuples_and_key_order():
    assert canonical_value((1, 2)) == [1, 2]
    assert canonical_value({"b": (1,), "a": {"z": 1, "y": 2}}) == {
        "a": {"y": 2, "z": 1},
        "b": [1],
    }
    with pytest.raises(TypeError):
        canonical_value({1: "non-string key"})


def test_spec_canonical_json_is_stable():
    a = Spec(fn="m:f", kwargs={"x": 1, "y": [1, 2]})
    b = Spec(fn="m:f", kwargs={"y": (1, 2), "x": 1})
    assert a.canonical_json() == b.canonical_json()


def test_resolve_callable_requires_module_colon_name():
    with pytest.raises(ValueError):
        resolve_callable("no.colon.here")
    assert resolve_callable(f"{_HERE}:echo") is echo


def test_parse_jobs():
    assert parse_jobs(3) == 3
    assert parse_jobs("2") == 2
    assert parse_jobs("auto") == (os.cpu_count() or 1)
    assert parse_jobs(None) == (os.cpu_count() or 1)
    with pytest.raises(ValueError):
        parse_jobs(0)
    with pytest.raises(ValueError):
        parse_jobs("zero")


# ---------------------------------------------------------------------------
# Ordering
# ---------------------------------------------------------------------------
def test_results_come_back_in_spec_order_despite_finish_order():
    # The slowest task is first: with 3 workers it finishes last, but the
    # merged result list must still be in spec order.
    specs = [
        Spec(fn=f"{_HERE}:slow_echo", kwargs={"value": 0, "seconds": 0.4}),
        Spec(fn=f"{_HERE}:slow_echo", kwargs={"value": 1, "seconds": 0.05}),
        Spec(fn=f"{_HERE}:echo", kwargs={"value": 2}),
    ]
    assert run_specs(specs, jobs=3) == [0, 1, 2]


def test_more_tasks_than_workers_drain_through_the_queue():
    specs = [Spec(fn=f"{_HERE}:echo", kwargs={"value": i}) for i in range(7)]
    assert run_specs(specs, jobs=2) == list(range(7))


# ---------------------------------------------------------------------------
# Crash handling
# ---------------------------------------------------------------------------
def test_crashed_worker_is_retried_once_and_recovers(tmp_path):
    flag = str(tmp_path / "attempted")
    specs = [
        Spec(fn=f"{_HERE}:echo", kwargs={"value": "a"}),
        Spec(fn=f"{_HERE}:crash_until_flag", kwargs={"flag_path": flag}),
    ]
    assert run_specs(specs, jobs=2) == ["a", "recovered"]


def test_persistent_crash_surfaces_as_sweep_error():
    specs = [Spec(fn=f"{_HERE}:crash_hard", label="always-dies")]
    with pytest.raises(SweepError) as excinfo:
        run_specs(specs, jobs=2)
    assert "always-dies" in str(excinfo.value)
    assert "crashed" in str(excinfo.value)


def test_a_persistent_crash_is_charged_to_that_spec_alone():
    # The crasher's death breaks the executor under its in-flight healthy
    # sibling too; the sibling's retry succeeds, the crasher's does not.
    crasher = Spec(fn=f"{_HERE}:crash_hard", label="always-dies")
    specs = [Spec(fn=f"{_HERE}:slow_echo", kwargs={"value": i, "seconds": 0.3})
             for i in range(3)]
    specs.insert(1, crasher)
    ok: list[int] = []
    with pytest.raises(SweepError) as excinfo:
        run_specs(specs, jobs=2,
                  on_result=lambda i, status, value: status == "ok" and ok.append(i))
    assert [spec for spec, _ in excinfo.value.failures] == [crasher]
    assert sorted(ok) == [0, 2, 3]


def test_worker_exception_propagates_with_traceback():
    specs = [
        Spec(fn=f"{_HERE}:echo", kwargs={"value": "fine"}),
        Spec(fn=f"{_HERE}:boom"),
    ]
    with pytest.raises(SweepError) as excinfo:
        run_specs(specs, jobs=2)
    assert "ValueError: boom" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Time budget and callbacks
# ---------------------------------------------------------------------------
def test_time_budget_skips_unstarted_points_inline():
    specs = [
        Spec(fn=f"{_HERE}:slow_echo", kwargs={"value": 0, "seconds": 0.2}),
        Spec(fn=f"{_HERE}:echo", kwargs={"value": 1}),
    ]
    results = run_specs(specs, jobs=1, time_budget=0.05)
    assert results == [0, None]  # first ran (budget checked before start), second skipped


def test_time_budget_with_workers_starts_a_prefix_and_nothing_after(tmp_path):
    def sweep(first_crashes):
        log = tmp_path / f"starts-{first_crashes}"
        specs = [
            Spec(fn=f"{_HERE}:logged",
                 kwargs={"log_path": str(log), "value": 0, "seconds": 0.3,
                         "crash": first_crashes}),
            Spec(fn=f"{_HERE}:logged",
                 kwargs={"log_path": str(log), "value": 1,
                         "seconds": 30.0 if first_crashes else 0.3}),
        ] + [
            Spec(fn=f"{_HERE}:logged", kwargs={"log_path": str(log), "value": i, "seconds": 0.0})
            for i in range(2, 6)
        ]
        results = run_specs(specs, jobs=2, time_budget=0.1)
        return results, sorted(log.read_text().split())

    # Two points are in flight when the deadline passes: they finish,
    # nothing else starts.
    assert sweep(False) == ([0, 1, None, None, None, None], ["0", "1"])
    # Same when the first one's worker dies after the deadline: neither it
    # nor the sibling its death took down is started again.
    assert sweep(True) == ([None] * 6, ["0", "1"])


def test_pool_mode_caches_each_point_as_it_completes(tmp_path):
    from repro.parallel import ResultCache

    cache = ResultCache(tmp_path, fingerprint="f")
    specs = [
        Spec(fn=f"{_HERE}:echo", kwargs={"value": 1}),
        Spec(fn=f"{_HERE}:slow_echo", kwargs={"value": 2, "seconds": 0.3}),
    ]

    def interrupt_on_second(index, status, value):
        if index == 1:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_specs(specs, jobs=2, cache=cache, on_result=interrupt_on_second)
    seen: list[tuple[int, str]] = []
    run_specs(specs[:1], jobs=2, cache=cache,
              on_result=lambda i, status, value: seen.append((i, status)))
    assert seen == [(0, "cached")]  # the interrupted sweep resumes, not restarts


def test_on_result_reports_cached_and_ok(tmp_path):
    from repro.parallel import ResultCache

    cache = ResultCache(tmp_path, fingerprint="f")
    spec = Spec(fn=f"{_HERE}:echo", kwargs={"value": 5})
    seen: list[tuple[int, str]] = []
    run_specs([spec], jobs=1, cache=cache,
              on_result=lambda i, status, value: seen.append((i, status)))
    run_specs([spec], jobs=1, cache=cache,
              on_result=lambda i, status, value: seen.append((i, status)))
    assert seen == [(0, "ok"), (0, "cached")]


# ---------------------------------------------------------------------------
# Isolation and observability merging
# ---------------------------------------------------------------------------
def test_parent_creation_observers_never_fire_in_a_worker(tmp_path):
    from repro.metrics.registry import observe_registries
    from repro.sim.network import observe_networks
    from repro.sim.simulator import observe_simulators

    log = tmp_path / "observed"

    def observed(_created):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")

    specs = [
        Spec(fn="repro.bench.runner:run_single_ring_point",
             kwargs={**_POINT, "offered_mbps": float(mbps)})
        for mbps in (50, 100, 150)
    ]
    removers = [observe(observed)
                for observe in (observe_simulators, observe_networks, observe_registries)]
    try:
        from_workers = run_specs(specs, jobs=2)
        assert not log.exists()
        assert run_specs(specs, jobs=1) == from_workers
        assert set(log.read_text().split()) == {str(os.getpid())}  # the hooks do fire
    finally:
        for remove in removers:
            remove()


def test_obs_sink_gets_each_points_records_once_in_spec_order():
    # The first point runs longest, so completion order is not spec order.
    specs = [
        Spec(fn="repro.bench.runner:run_single_ring_point",
             kwargs={**_POINT, "duration": duration})
        for duration in (0.6, 0.1, 0.1)
    ]
    sunk: list[tuple[str, list[dict]]] = []
    run_specs(specs, jobs=2, obs_sink=lambda records, origin: sunk.append((origin, records)))
    assert [origin for origin, _ in sunk] == ["spec:0", "spec:1", "spec:2"]
    for _, records in sunk:
        assert records[0]["type"] == "meta" and records[0]["simulators"] == 1


# ---------------------------------------------------------------------------
# Executor configuration
# ---------------------------------------------------------------------------
def test_default_executor_config_is_serial_inline_uncached():
    cfg = get_executor_config()
    assert cfg.jobs == 1
    assert cfg.cache is None
    assert cfg.obs_sink is None


def test_configure_executor_overrides_and_restores():
    restore = configure_executor(jobs=7)
    try:
        assert get_executor_config().jobs == 7
        assert get_executor_config().cache is None  # untouched fields inherited
    finally:
        restore()
    assert get_executor_config().jobs == 1
    with pytest.raises(TypeError):
        configure_executor(nonsense=1)


def test_run_sweep_uses_the_process_config(tmp_path):
    from repro.parallel import ResultCache

    cache = ResultCache(tmp_path, fingerprint="f")
    restore = configure_executor(jobs=1, cache=cache)
    try:
        assert run_sweep([Spec(fn=f"{_HERE}:echo", kwargs={"value": 9})]) == [9]
    finally:
        restore()
    assert cache.stats()["stores"] == 1
