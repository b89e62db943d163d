"""Layers of the repository, and the two host-side instruments over them.

A *layer* is a set of modules under ``src/repro``. ``LAYER_FILES`` names
every module of the packages the workloads exercise, one layer each;
``OTHER_PACKAGES`` sends whole unexercised packages to ``python.other``.
A module in neither is an error (``tests/test_layers.py``), so a new
module cannot silently fall out of the profile.

Instruments, both installed by the harness around unmodified code:

* :class:`Sampler` — an ``ITIMER_PROF`` signal handler that charges each
  sample to the layer of the innermost ``repro`` frame and records the
  collapsed layer chain of the stack. The timer ticks on consumed CPU
  time at the kernel's rate (250 Hz on the reference host) and fires
  between bytecodes, so time inside a C builtin lands on the Python
  frame that called it.
* :func:`profiled_calls` — one rep under ``cProfile``, call counts summed
  by the callee's layer. Counts are exact and repeat; cProfile's times
  are distorted by its per-call cost and are not reported.
"""

from __future__ import annotations

import cProfile
import pstats
import signal
from pathlib import Path
from typing import Callable

OTHER = "python.other"

LAYER_FILES: dict[str, tuple[str, ...]] = {
    "sim.kernel": (
        "sim/__init__.py", "sim/simulator.py", "sim/events.py",
        "sim/completion.py", "sim/process.py", "sim/rng.py", "sim/trace.py",
    ),
    "sim.network": ("sim/network.py", "sim/topology.py", "sim/node.py", "sim/loss.py"),
    "sim.server": ("sim/server.py", "sim/cpu.py", "sim/disk.py"),
    "sim.faults": ("sim/faults.py",),
    "paxos": (
        "paxos/__init__.py", "paxos/acceptor.py", "paxos/ballot.py",
        "paxos/learner.py", "paxos/messages.py", "paxos/proposer.py",
        "paxos/storage.py", "paxos/value.py",
    ),
    "ringpaxos.proposer": ("ringpaxos/proposer.py",),
    "ringpaxos.coordinator": ("ringpaxos/coordinator.py",),
    "ringpaxos.acceptor": ("ringpaxos/acceptor.py",),
    "ringpaxos.learner": ("ringpaxos/learner.py",),
    "ringpaxos.wire": (
        "ringpaxos/__init__.py", "ringpaxos/messages.py", "ringpaxos/valuestore.py",
        "ringpaxos/batcher.py", "ringpaxos/config.py", "ringpaxos/builder.py",
    ),
    "core.proposer": ("core/proposer.py", "core/admission.py"),
    "core.skip": ("core/skip.py",),
    "core.merge": ("core/merge.py",),
    "core.learner": ("core/learner.py",),
    "core.control": (
        "core/__init__.py", "core/config.py", "core/deployment.py", "core/groups.py",
        "core/placement.py", "core/reconfig.py", "core/interop.py",
        "ringpaxos/reconfig.py",
    ),
    "smr": (
        "smr/__init__.py", "smr/client.py", "smr/kvstore.py", "smr/partitioning.py",
        "smr/queueservice.py", "smr/replica.py", "smr/statemachine.py",
    ),
    "workload": (
        "workload/__init__.py", "workload/generator.py", "workload/population.py",
        "workload/rates.py", "workload/replay.py",
    ),
    "metrics": (
        "metrics/__init__.py", "metrics/counters.py", "metrics/histogram.py",
        "metrics/registry.py", "metrics/timeseries.py",
    ),
    "obs": (
        "obs/__init__.py", "obs/export.py", "obs/probe.py", "obs/profiler.py",
        "obs/session.py",
    ),
    "check": (
        "check/__init__.py", "check/driver.py", "check/generator.py",
        "check/oracles.py", "check/schedule.py",
    ),
    OTHER: ("__init__.py", "__main__.py", "calibration.py", "cli.py", "errors.py"),
}
OTHER_PACKAGES = ("baselines/", "bench/", "model/", "parallel/")

LAYERS: tuple[str, ...] = tuple(LAYER_FILES)
_LAYER_OF_FILE = {rel: layer for layer, files in LAYER_FILES.items() for rel in files}
_PACKAGE_MARK = "/src/repro/"


def layer_of(rel_path: str) -> str | None:
    """Layer of a module path relative to ``src/repro`` (None: unmapped)."""
    layer = _LAYER_OF_FILE.get(rel_path)
    if layer is None and rel_path.startswith(OTHER_PACKAGES):
        return OTHER
    return layer


def layer_of_filename(filename: str) -> str | None:
    """Layer of a code object's filename; None for code outside ``repro``."""
    at = filename.rfind(_PACKAGE_MARK)
    if at < 0:
        return None
    return layer_of(filename[at + len(_PACKAGE_MARK):]) or OTHER


# Asked of ITIMER_PROF; the kernel ticks no faster than its own rate (250 Hz
# on the reference host), which this matches.
SAMPLE_INTERVAL_S = 0.004


class Sampler:
    """CPU-time stack sampler that attributes samples to layers."""

    def __init__(self) -> None:
        self.samples = 0
        self.by_layer: dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.by_chain: dict[tuple[str, ...], int] = {}
        self._layer_cache: dict[str, str | None] = {}
        self._previous = None

    def _on_tick(self, signum, frame) -> None:
        cache = self._layer_cache
        chain: list[str] = []  # innermost layer first
        while frame is not None:
            filename = frame.f_code.co_filename
            layer = cache.get(filename, cache)
            if layer is cache:
                layer = cache[filename] = layer_of_filename(filename)
            if layer is not None and (not chain or chain[-1] != layer):
                chain.append(layer)
            frame = frame.f_back
        if not chain:
            chain.append(OTHER)
        self.samples += 1
        self.by_layer[chain[0]] += 1
        key = tuple(reversed(chain))
        self.by_chain[key] = self.by_chain.get(key, 0) + 1

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_tick)
        return self

    def __exit__(self, *exc: object) -> None:
        self.suspend()
        signal.signal(signal.SIGPROF, self._previous)

    def resume(self) -> None:
        """Start (or restart) the timer; samples arrive until :meth:`suspend`."""
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def suspend(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)

    def shares(self) -> dict[str, float]:
        """Fraction of samples whose innermost ``repro`` frame is in each layer."""
        total = max(self.samples, 1)
        return {layer: count / total for layer, count in self.by_layer.items()}

    def folded(self) -> str:
        """Folded stacks (``outer;...;inner count``), one layer span per entry."""
        lines = [f"{';'.join(chain)} {count}" for chain, count in sorted(self.by_chain.items())]
        return "\n".join(lines) + "\n"


def profiled_calls(fn: Callable[[], object]) -> dict[str, int]:
    """Run ``fn`` under cProfile; calls received by each layer's functions.

    Pass the bound ``advance`` of a run built beforehand, so that the
    counts cover the span the sampler and the stopwatch cover. Builtins
    and code outside ``repro`` (the harness included) count towards
    ``python.other``.
    """
    profile = cProfile.Profile()
    profile.runcall(fn)
    calls = dict.fromkeys(LAYERS, 0)
    for (filename, _line, _name), (_cc, ncalls, _tt, _ct, _callers) in pstats.Stats(
        profile
    ).stats.items():
        calls[layer_of_filename(filename) or OTHER] += ncalls
    return calls


def unmapped_modules(package_root: Path) -> list[str]:
    """Modules under ``package_root`` (``src/repro``) that have no layer."""
    return sorted(
        rel
        for path in package_root.rglob("*.py")
        if layer_of(rel := path.relative_to(package_root).as_posix()) is None
    )
