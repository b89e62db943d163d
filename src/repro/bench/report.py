"""Plain-text report formatting for the benchmark harness.

Each benchmark prints the rows/series its paper figure reports, plus a
paper-vs-measured expectation line, and appends everything to
``results/`` so EXPERIMENTS.md can be assembled from real runs.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Sequence

__all__ = ["format_table", "emit", "series_to_rows", "read_jsonl"]

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", "results")


def format_table(title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned plain-text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


def emit(name: str, text: str) -> None:
    """Print a report block and persist it under results/<name>.txt."""
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def series_to_rows(
    series: list[tuple[float, float]], every: int = 5
) -> list[tuple[float, float]]:
    """Thin a per-second series to every ``every``-th sample for printing."""
    return [point for i, point in enumerate(series) if i % every == 0]


def read_jsonl(path: str, type: str | None = None) -> list[dict[str, Any]]:
    """Load an observability trace written by the JSONL exporter.

    ``type`` filters on the record tag (``probe`` / ``metric`` /
    ``profile`` / ``meta``); blank lines are ignored.
    """
    records: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if type is None or record.get("type") == type:
                records.append(record)
    return records
