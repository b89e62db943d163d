"""Where network tracing went.

This module used to hold ``Tracer``, a bounded in-memory event recorder
attached by replacing a network's ``send`` / ``multicast`` per instance.
The probe bus supersedes it: ``net.enqueue`` / ``net.deliver`` /
``net.drop`` events (``repro.obs.probe``) carry source, destination,
port, message type and size, ``ProbeBus.subscribe`` filters by kind, and
``repro.obs.export.JsonlTraceWriter`` persists them.

The file stays, empty, because ``benchmarks/e2e/layers.py::LAYER_FILES``
still names it and a change under ``src/`` may not edit the benchmark
(ROADMAP item 5).
"""
