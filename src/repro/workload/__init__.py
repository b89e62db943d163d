"""Workload generation: offered-rate schedules, load generators, populations."""

from .generator import ClosedLoopGenerator, OpenLoopGenerator, ThrottledGenerator
from .population import BatchArrivalProcess, ClientPopulation, SessionMix, poisson
from .replay import TraceRecord, TraceRecorder, TraceReplayer, dump_trace, load_trace
from .rates import (
    ConstantRate,
    ModulatedRate,
    RateSchedule,
    ScaledRate,
    StepRate,
    next_change_after,
)

__all__ = [
    "BatchArrivalProcess",
    "ClientPopulation",
    "ClosedLoopGenerator",
    "ConstantRate",
    "ModulatedRate",
    "OpenLoopGenerator",
    "RateSchedule",
    "ScaledRate",
    "SessionMix",
    "StepRate",
    "ThrottledGenerator",
    "TraceRecord",
    "TraceRecorder",
    "TraceReplayer",
    "dump_trace",
    "load_trace",
    "next_change_after",
    "poisson",
]
