"""Worker-subprocess runs are bit-for-bit identical to in-process runs.

This is the executor's central guarantee (ISSUE satellite 2): a sweep
point run in a forked pool worker must produce *exactly* the result an
in-process call produces, so ``--jobs N`` can never change a figure or a
fuzz verdict. The comparisons are full dataclass equality — every field,
including floating-point throughput/latency numbers, must match to the
last bit.
"""

from repro.bench.runner import run_single_ring_point
from repro.check.driver import run_case
from repro.parallel import Spec, run_specs

_POINT_KWARGS = {"offered_mbps": 150.0, "durable": False,
                 "duration": 0.4, "warmup": 0.2}
_CASE_KWARGS = {"seed": 1234, "grace": 4.0, "duration": 3.0}


def _via_pool(spec: Spec):
    [value] = run_specs([spec], jobs=2)
    return value


def test_single_ring_point_matches_across_process_boundary():
    spec = Spec(fn="repro.bench.runner:run_single_ring_point", kwargs=_POINT_KWARGS)
    in_process = run_single_ring_point(**_POINT_KWARGS)
    assert _via_pool(spec) == in_process


def test_fuzz_case_matches_across_process_boundary():
    spec = Spec(fn="repro.check.driver:run_case", kwargs=_CASE_KWARGS)
    in_process = run_case(**_CASE_KWARGS)
    from_worker = _via_pool(spec)
    # Full equality covers verdict, oracle, message, events_checked, the
    # derived CaseConfig, and every ScheduleStep.
    assert from_worker == in_process


def test_jobs_one_and_jobs_two_merge_identically():
    specs = [
        Spec(fn="repro.bench.runner:run_single_ring_point",
             kwargs={**_POINT_KWARGS, "offered_mbps": float(mbps)})
        for mbps in (50, 150)
    ]
    assert run_specs(specs, jobs=1) == run_specs(specs, jobs=2)
