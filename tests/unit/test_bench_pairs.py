"""`scripts/bench_pairs.py --layers`: which differing counts are findings."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[2] / "scripts" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _per_layer(**values):
    return {name.replace("__", "."): {"value": v, "unit": ""} for name, v in values.items()}


BASE = dict(
    host__events_per_s=2.0e5, sim__kernel__host_share=0.17, sim__kernel__calls=171742,
    sim__kernel__events=223131, python__other__calls=2351324,
)


def test_launch_dependent_count_is_listed_but_is_not_a_finding():
    # Two launches of one code: pstats keeps a different dataclass __init__.
    other = {**BASE, "python__other__calls": 2339140, "host__events_per_s": 1.9e5,
             "sim__kernel__host_share": 0.18}
    text, findings = bench_pairs.layers_report("w", _per_layer(**BASE), _per_layer(**other))
    assert findings == 0
    assert "`python.other.calls` (launch-dependent) | 2351324 | 2339140" in text
    assert "host.events_per_s" not in text.split("counts that differ")[1]


def test_a_count_that_repeats_is_a_finding():
    other = {**BASE, "sim__kernel__calls": 171743, "python__other__calls": 2339140}
    text, findings = bench_pairs.layers_report("w", _per_layer(**BASE), _per_layer(**other))
    assert findings == 1
    assert "| `sim.kernel.calls` | 171742 | 171743 | 1.000 |" in text


def test_identical_sides_report_nothing():
    text, findings = bench_pairs.layers_report("w", _per_layer(**BASE), _per_layer(**BASE))
    assert findings == 0
    assert "no per-layer count differs" in text
