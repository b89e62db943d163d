"""Deterministic discrete-event simulation substrate.

This package stands in for the paper's physical testbed: it provides the
clock, machines (CPU + disk), and the switched network (unicast and IP
multicast) that the Paxos, Ring Paxos, and Multi-Ring Paxos protocol
implementations run on. See DESIGN.md section 1 for the substitution
rationale.
"""

from .cpu import Cpu
from .disk import Disk
from .events import EventQueue
from .faults import NetworkPartition
from .loss import LossModel, NoLoss, TunableLoss, UniformLoss
from .network import Network, Nic
from .node import Node
from .process import PeriodicTimer, Process, Timer
from .rng import RandomStreams
from .server import FifoServer
from .simulator import Simulator
from .topology import GeoNetwork, Topology, WanLink

__all__ = [
    "Cpu",
    "Disk",
    "EventQueue",
    "FifoServer",
    "GeoNetwork",
    "LossModel",
    "Network",
    "NetworkPartition",
    "Nic",
    "NoLoss",
    "Node",
    "PeriodicTimer",
    "Process",
    "RandomStreams",
    "Simulator",
    "Timer",
    "Topology",
    "TunableLoss",
    "UniformLoss",
    "WanLink",
]
