"""Round-synchronous discrete-event simulation substrate.

Replaces the paper's Grid'5000 deployment and OMNeT++ simulations with a
single engine that executes the protocols' real message sequences and
meters every byte.  The substitution keeps what the paper measures,
bytes and crypto operations per node, exact; it does not model link
timing: a round is one synchronous step, and loss, delay and outages
are injected by :mod:`repro.sim.faults`.
"""

from __future__ import annotations

from repro.sim.engine import Simulator
from repro.sim.execution import (
    ExecutionPolicy,
    SerialPolicy,
    make_policy,
)
from repro.sim.faults import LinkCutFault, LossFault, OutageFault
from repro.sim.message import Message, WireSizes
from repro.sim.metrics import BandwidthMeter, NodeTraffic, cdf_points, kbps
from repro.sim.network import Network, SendCapture
from repro.sim.node import SimNode
from repro.sim.rng import SeedSequence, derive_seed
from repro.sim.trace import TraceRecord, TraceRecorder

__all__ = [
    "BandwidthMeter",
    "ExecutionPolicy",
    "LinkCutFault",
    "LossFault",
    "Message",
    "Network",
    "NodeTraffic",
    "OutageFault",
    "SeedSequence",
    "SendCapture",
    "SerialPolicy",
    "SimNode",
    "Simulator",
    "TraceRecord",
    "TraceRecorder",
    "WireSizes",
    "cdf_points",
    "derive_seed",
    "kbps",
    "make_policy",
]
