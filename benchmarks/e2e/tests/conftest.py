"""Self-tests of the benchmark harness: ``pytest benchmarks/e2e/tests``."""

import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parents[1]
ROOT = HARNESS.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HARNESS)]
