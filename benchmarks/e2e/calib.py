"""The calibration kernel: a fixed slice of interpreter work.

Identical runs of one scenario on the 2-core reference host differ by up
to 60 % in raw wall time, and the host's speed moves within a second (see
the noise study in README.md). A timed rep therefore stops every
0.1-0.3 s for one slice of this kernel, and ``run_wall_norm_s`` reports
the scenario's wall time in units of the slices', scaled by
``CALIB_REF_S``.

A slice does what the simulator does per event — heap push/pop of tuples,
dict updates, a method call on a slotted object, float arithmetic — in
two halves of about equal cost: one over a working set that fits the
core's own cache, one over a few megabytes that do not. A busy neighbour
slows the two by different amounts, and the simulator's slowdown lies
between them; across processes the sum tracks a scenario to 1.5 %, either
half alone to 3 % (README.md).

Pure standard library and deliberately independent of ``repro``: a change
to the repository can never move the yardstick.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

# Wall time of one slice on the reference host (2-core KVM guest, Xeon
# 2.1 GHz, CPython 3.11.7, Linux 6.18) when BENCHMARK.json was recorded:
# the median slice of results/seed.json, rounded. Normalised seconds are
# reference-host seconds.
CALIB_REF_S = 0.0600

RESIDENT_STEPS = 30_000
RESIDENT_HEAP, RESIDENT_KEYS, RESIDENT_CELLS = 256, 1 << 10, 64
SPREAD_STEPS = 14_000
SPREAD_HEAP, SPREAD_KEYS, SPREAD_CELLS = 1 << 14, 1 << 16, 1 << 12


class _Cell:
    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        self.total += x


class _Half:
    """A self-feeding event loop over a working set of a fixed size."""

    def __init__(self, heap_size: int, keys: int, cells: int) -> None:
        self.heap: list[tuple[float, int, object]] = []
        self.table = dict.fromkeys(range(keys), 0)
        self.cells = [_Cell() for _ in range(cells)]
        self.state = 12345
        self.next_seq = heap_size
        for i in range(heap_size):
            self.state = (self.state * 1103515245 + 12345) & 0x7FFFFFFF
            heappush(self.heap, (self.state / 2147483648.0, i, None))

    def run(self, steps: int) -> None:
        heap, table, cells, state = self.heap, self.table, self.cells, self.state
        key_mask, cell_mask = len(table) - 1, len(cells) - 1
        for seq in range(self.next_seq, self.next_seq + steps):
            t, old_seq, _ = heappop(heap)
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            key = (state >> 3) & key_mask
            table[key] += 1
            cells[key & cell_mask].add(t)
            heappush(heap, (t + (state >> 10) / 2097152.0 * 1e-3, seq, (key, old_seq)))
        self.state = state
        self.next_seq += steps


class Calibrator:
    """Holds the two working sets; :meth:`slice` times one pass over both."""

    def __init__(self) -> None:
        self._resident = _Half(RESIDENT_HEAP, RESIDENT_KEYS, RESIDENT_CELLS)
        self._spread = _Half(SPREAD_HEAP, SPREAD_KEYS, SPREAD_CELLS)

    def slice(self) -> float:
        """Wall seconds of one slice."""
        start = time.perf_counter()
        self._resident.run(RESIDENT_STEPS)
        self._spread.run(SPREAD_STEPS)
        return time.perf_counter() - start
