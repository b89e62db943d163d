"""Parallel sweep execution and result caching.

Paper figures and fuzz campaigns are grids of *independent* points —
every runner builds a fresh simulator, so a sweep is embarrassingly
parallel and every completed point is memoizable. This package provides
both halves:

* :mod:`repro.parallel.spec` — the picklable unit of work;
* :mod:`repro.parallel.pool` — process-pool fan-out with deterministic
  spec-order merging and crashed-worker retry;
* :mod:`repro.parallel.cache` — content-addressed on-disk result cache
  keyed by canonical spec + code fingerprint;
* :mod:`repro.parallel.fingerprint` — the code-version hash.

See docs/simulation.md ("Parallel execution & result caching").
"""

from .cache import DEFAULT_CACHE_DIR, MISS, ResultCache
from .fingerprint import clear_fingerprint_cache, code_fingerprint
from .pool import (
    ExecutorConfig,
    SweepError,
    configure_executor,
    get_executor_config,
    parse_jobs,
    run_specs,
    run_sweep,
)
from .spec import Spec, canonical_value, execute_spec, resolve_callable

__all__ = [
    "DEFAULT_CACHE_DIR",
    "MISS",
    "ResultCache",
    "clear_fingerprint_cache",
    "code_fingerprint",
    "ExecutorConfig",
    "SweepError",
    "configure_executor",
    "get_executor_config",
    "parse_jobs",
    "run_specs",
    "run_sweep",
    "Spec",
    "canonical_value",
    "execute_spec",
    "resolve_callable",
]
