"""Where resource completions went.

This module used to hold ``CompletionStrip``, a per-resource FIFO that
kept only its earliest completion on the event queue and swept the rest
inline. On the binary-heap kernel it cost more than it saved (numbers in
``docs/simulation.md``, "Ablations"), so every completion is now its own
``(time, seq, fn, args)`` heap entry, pushed at the program point where
the strip used to reserve its ``seq``: ``FifoServer.submit`` and
``Network.send`` / ``multicast`` push it inline, and ``Disk.write`` and
``GeoNetwork`` call ``Simulator.at``. The global ``(time, seq)`` order of
callbacks is the one the strips produced.

The file stays, empty, because ``benchmarks/e2e/layers.py::LAYER_FILES``
still names it and a change under ``src/`` may not edit the benchmark
(ROADMAP, kernel audit, ordering constraint).
"""
