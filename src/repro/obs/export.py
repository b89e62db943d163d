"""JSONL trace export: one JSON object per line, streamed as it happens.

The exporter is the bridge between the observability layer and figure
scripts: probe events, metric snapshots, and profiler rows all serialize
to flat records tagged with a ``type`` field (``probe`` / ``metric`` /
``profile`` / ``meta``), so a consumer can filter with one key lookup.
``repro.bench.report.read_jsonl`` is the matching reader.
"""

from __future__ import annotations

import json
from typing import IO, Any

from .probe import ProbeBus, ProbeEvent

__all__ = ["JsonlTraceWriter"]


class JsonlTraceWriter:
    """Streams observability records as JSON lines to a file or a stream.

    ``target`` is a path, opened on the first write and closed by
    :meth:`close`, or an open text stream, which stays the caller's (a
    sweep worker's collecting session writes to an ``io.StringIO``). Can
    be used standalone (``write`` / ``write_probe``) or subscribed to a
    :class:`ProbeBus` for selected event kinds. Context-manager friendly.
    """

    def __init__(self, target: str | IO[str]) -> None:
        self.path = None if hasattr(target, "write") else str(target)
        self.records_written = 0
        self._fh: IO[str] | None = target if self.path is None else None
        self._unsubscribers: list = []

    def _file(self) -> IO[str]:
        if self._fh is None:
            self._fh = open(self.path, "w", encoding="utf-8")
        return self._fh

    def write(self, record: dict[str, Any]) -> None:
        """Append one record as a JSON line."""
        self._file().write(json.dumps(record, default=str) + "\n")
        self.records_written += 1

    def write_probe(self, event: ProbeEvent) -> None:
        """Append one probe event."""
        self.write(event.as_record())

    def subscribe(self, bus: ProbeBus, kinds: tuple[str, ...]) -> None:
        """Stream every future event of the given kinds to the file."""
        for kind in kinds:
            self._unsubscribers.append(bus.subscribe(self.write_probe, kind=kind))

    def close(self) -> None:
        """Unsubscribe from any bus and close the file (not a caller's stream)."""
        for remove in self._unsubscribers:
            remove()
        self._unsubscribers.clear()
        if self.path is not None and self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

