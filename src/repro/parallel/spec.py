"""Task specs: the picklable, hashable unit of work of a sweep.

A :class:`Spec` names a callable by dotted path (``module:function``)
plus keyword arguments built only from JSON primitives. That restriction
is what buys everything else:

* **picklable** — a spec crosses a process boundary trivially;
* **hashable** — its canonical dict serializes to one JSON string, the
  basis of the content-addressed result cache;
* **replayable** — a spec in a log is enough to reproduce the point.

Sweep construction therefore returns specs instead of calling runners in
a loop; the executor (:mod:`repro.parallel.pool`) decides where and
whether each one actually runs.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Spec", "canonical_value", "resolve_callable", "execute_spec"]

_PRIMITIVES = (str, int, float, bool, type(None))


def canonical_value(value: Any) -> Any:
    """Reduce ``value`` to a canonical JSON-able form (sorted dict keys,
    tuples as lists); raise ``TypeError`` for anything unhashable-by-content.

    Rejecting rich objects here (rather than pickling them) keeps cache
    keys stable across interpreter versions and code refactors: two specs
    collide iff they describe the same experiment.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        # 2.0 and 2 must hash identically only if the caller passes them
        # identically; keep floats as floats (repr-stable in JSON).
        return value
    if isinstance(value, (list, tuple)):
        return [canonical_value(v) for v in value]
    if isinstance(value, dict):
        out = {}
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"spec dict keys must be strings, got {key!r}")
            out[key] = canonical_value(value[key])
        return out
    raise TypeError(
        f"spec values must be JSON primitives/lists/dicts, got {type(value).__name__}: {value!r}"
    )


@dataclass(slots=True)
class Spec:
    """One point of a sweep: ``fn`` is a ``module:qualname`` dotted path,
    ``kwargs`` its keyword arguments (JSON primitives only)."""

    fn: str
    kwargs: dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def canonical(self) -> dict:
        """The content-addressed identity of this spec (``label`` is
        presentation, not identity)."""
        return {"fn": self.fn, "kwargs": canonical_value(self.kwargs)}

    def canonical_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))

    def display(self) -> str:
        if self.label:
            return self.label
        args = ", ".join(f"{k}={v!r}" for k, v in sorted(self.kwargs.items()))
        return f"{self.fn}({args})"


def resolve_callable(path: str):
    """Import ``module:qualname`` and return the attribute.

    Resolution happens at call time through the module's attribute, so a
    monkeypatched runner (tests) or a reloaded module is honored.
    """
    module_name, sep, qualname = path.partition(":")
    if not sep or not module_name or not qualname:
        raise ValueError(f"spec fn must look like 'package.module:callable', got {path!r}")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def execute_spec(spec: Spec, capture_obs: bool = False) -> tuple[Any, list[dict] | None]:
    """Run one spec; returns ``(result, obs_records_or_None)``.

    With ``capture_obs``, the call runs inside a collecting
    :class:`~repro.obs.session.ObsSession` and the session's summary
    records (profile rows, metric snapshots) ride back with the result —
    this is how worker processes feed the parent's single trace file.
    """
    fn = resolve_callable(spec.fn)
    if not capture_obs:
        return fn(**spec.kwargs), None
    from ..obs.session import ObsSession

    with ObsSession(collect=True) as session:
        result = fn(**spec.kwargs)
    return result, session.records()
