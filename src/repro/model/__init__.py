"""Analytic performance model of (Multi-)Ring Paxos.

* :mod:`repro.model.analytic` — the closed-form queueing/bottleneck
  model itself (pure arithmetic, no simulator imports);
* :mod:`repro.model.validate` — model-vs-sim cross-checks
  (``repro validate``);
* :mod:`repro.model.capacity` — capacity-planning tables
  (``repro model``).

Only the arithmetic core is re-exported here so importing the package
stays light; the sweep/validation wiring imports the simulator stack.
"""

from .analytic import Calibration, MultiRingModel, RingModel

__all__ = ["Calibration", "MultiRingModel", "RingModel"]
