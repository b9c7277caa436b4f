"""Cycle-based, flit-level 3D NoC simulator (Access-Noxim substitution).

The simulator models input-buffered wormhole routers with two virtual
networks (the Elevator-First deadlock-avoidance discipline of Table I),
credit-style backpressure, single-flit-per-link-per-cycle traversal and
partial vertical connectivity.  It is the substrate on which the paper's
evaluation (Figs. 4-7, Table II) runs.

Main entry points:

* :class:`~repro.sim.network.Network` -- builds the routers and links for a
  mesh + elevator placement + elevator-selection policy.
* :class:`~repro.sim.engine.Simulator` -- drives a network with a packet
  source for a number of cycles and collects statistics (the one run
  lifecycle, :func:`~repro.sim.engine.run_lifecycle`, with one replica).
* :mod:`repro.sim.backends` -- the pluggable kernels executing each cycle
  (``reference`` full scan, the default ``optimized`` active-set kernel,
  the numpy ``vectorized`` kernel; registered in ``BACKEND_REGISTRY``).
* :class:`~repro.sim.stats.SimulationStats` / ``SimulationResult`` -- the
  measurements (latency, throughput, per-router load, hop/energy counters).
"""

from repro.sim.flit import Flit, FlitType, Packet
from repro.sim.buffer import FlitBuffer
from repro.sim.router import Port, Router
from repro.sim.network import Network
from repro.sim.engine import SimulationResult, Simulator
from repro.sim.stats import SimulationStats
from repro.sim.backends import (
    BACKEND_REGISTRY,
    DEFAULT_BACKEND,
    SimulatorBackend,
    available_backends,
    register_backend,
    resolve_backend,
)

__all__ = [
    "Flit",
    "FlitType",
    "Packet",
    "FlitBuffer",
    "Port",
    "Router",
    "Network",
    "Simulator",
    "SimulationResult",
    "SimulationStats",
    "BACKEND_REGISTRY",
    "DEFAULT_BACKEND",
    "SimulatorBackend",
    "available_backends",
    "register_backend",
    "resolve_backend",
]
