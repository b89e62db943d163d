"""The content-addressed result cache: keys, invalidation, atomicity.

The invalidation contract (ISSUE 4): a changed spec field is a miss, a
bumped code fingerprint is a miss, and an identical spec is a hit that
never constructs a simulator (asserted here via a monkeypatched runner).
"""

import pickle

import pytest

from repro.bench.runner import PointResult
from repro.parallel import MISS, ResultCache, Spec, run_specs
from repro.parallel.cache import _ENTRY_VERSION


def _spec(**kw) -> Spec:
    kwargs = {"offered_mbps": 100.0, "durable": False}
    kwargs.update(kw)
    return Spec(fn="repro.bench.runner:run_single_ring_point", kwargs=kwargs)


def _result(label="x") -> PointResult:
    return PointResult(label=label, offered_mbps=1.0, delivered_mbps=2.0,
                       msgs_per_s=3.0, latency_ms=4.0, cpu_pct=5.0)


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------
def test_identical_spec_same_key_changed_field_different_key(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="f1")
    assert cache.key(_spec()) == cache.key(_spec())
    assert cache.key(_spec()) != cache.key(_spec(offered_mbps=200.0))
    assert cache.key(_spec()) != cache.key(_spec(durable=True))
    # kwarg order is canonicalized away.
    a = Spec(fn="m:f", kwargs={"a": 1, "b": 2})
    b = Spec(fn="m:f", kwargs={"b": 2, "a": 1})
    assert cache.key(a) == cache.key(b)


def test_label_and_cacheable_are_not_identity(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="f1")
    assert cache.key(_spec()) == cache.key(
        Spec(fn=_spec().fn, kwargs=_spec().kwargs, label="pretty")
    )


def test_bumped_fingerprint_changes_key_and_misses(tmp_path):
    old = ResultCache(tmp_path, fingerprint="code-v1")
    new = ResultCache(tmp_path, fingerprint="code-v2")
    spec = _spec()
    old.put(spec, _result())
    assert old.get(spec) is not MISS
    assert new.get(spec) is MISS
    assert old.key(spec) != new.key(spec)


def test_rejects_unhashable_spec_values(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="f")
    with pytest.raises(TypeError):
        cache.key(Spec(fn="m:f", kwargs={"obj": object()}))


# ---------------------------------------------------------------------------
# Round-trip, corruption, clear
# ---------------------------------------------------------------------------
def test_put_get_round_trip(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="f")
    spec = _spec()
    cache.put(spec, _result("stored"))
    got = cache.get(spec)
    assert got.label == "stored"
    assert cache.stats() == {"hits": 1, "misses": 0, "stores": 1}


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="f")
    spec = _spec()
    cache.put(spec, _result())
    cache.path_for(spec).write_bytes(b"\x80truncated garbage")
    assert cache.get(spec) is MISS


def test_wrong_entry_version_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="f")
    spec = _spec()
    cache.put(spec, _result())
    entry = pickle.loads(cache.path_for(spec).read_bytes())
    entry["version"] = _ENTRY_VERSION + 1
    cache.path_for(spec).write_bytes(pickle.dumps(entry))
    assert cache.get(spec) is MISS


def test_put_leaves_no_temp_files(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="f")
    cache.put(_spec(), _result())
    assert [p.suffix for p in tmp_path.iterdir()] == [".pkl"]


def test_clear_removes_entries(tmp_path):
    cache = ResultCache(tmp_path, fingerprint="f")
    cache.put(_spec(), _result())
    cache.put(_spec(offered_mbps=1.0), _result())
    assert cache.clear() == 2
    assert cache.get(_spec()) is MISS


# ---------------------------------------------------------------------------
# Through the executor: a hit never constructs a simulator
# ---------------------------------------------------------------------------
def test_cache_hit_skips_execution_entirely(tmp_path, monkeypatch):
    import repro.bench.runner as runner_mod

    calls = {"n": 0}
    real = runner_mod.run_single_ring_point

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "run_single_ring_point", counting)
    cache = ResultCache(tmp_path, fingerprint="f")
    spec = _spec(duration=0.2, warmup=0.1)

    [first] = run_specs([spec], jobs=1, cache=cache)
    assert calls["n"] == 1

    # Second run: served from disk — the (monkeypatched) runner must not
    # run at all, so no simulator is ever constructed.
    def exploding(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("cache hit must not construct a simulator")

    monkeypatch.setattr(runner_mod, "run_single_ring_point", exploding)
    [second] = run_specs([spec], jobs=1, cache=cache)
    assert second == first
    assert cache.hits == 1


def test_changed_spec_field_reexecutes(tmp_path, monkeypatch):
    import repro.bench.runner as runner_mod

    calls = {"n": 0}
    real = runner_mod.run_single_ring_point

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "run_single_ring_point", counting)
    cache = ResultCache(tmp_path, fingerprint="f")
    run_specs([_spec(duration=0.2, warmup=0.1)], jobs=1, cache=cache)
    run_specs([_spec(duration=0.2, warmup=0.1, seed=2)], jobs=1, cache=cache)
    assert calls["n"] == 2  # both were misses
