"""Suite-wide enforcement of message immutability.

The Ring Paxos wire messages and :class:`~repro.obs.probe.ProbeEvent` are
plain slotted dataclasses: immutable by contract, with nothing enforcing it
per construction (``ringpaxos/messages.py``). The whole tier-1 suite —
golden traces, property tests, the fuzz corpus — runs with a write-once
``__setattr__`` on each of those classes instead: the store that fills an
unset slot passes, which is what ``__init__`` and ``__post_init__`` do, and
any later store, or any delete, raises ``dataclasses.FrozenInstanceError``.
"""

import dataclasses

from repro.obs.probe import ProbeEvent
from repro.ringpaxos import messages


def _write_once(self, name, value):
    if hasattr(self, name):
        raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")
    object.__setattr__(self, name, value)


def _no_delete(self, name):
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


for _cls in (*(getattr(messages, _name) for _name in messages.__all__), ProbeEvent):
    if dataclasses.is_dataclass(_cls):  # __all__ also exports CONTROL_GROUP
        _cls.__setattr__ = _write_once
        _cls.__delattr__ = _no_delete
