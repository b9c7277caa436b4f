"""Pluggable simulation kernels (cycle-loop backends).

The cycle loop is written once, in :func:`repro.sim.engine.run_lifecycle`;
each cycle's work is done by the step object of a :class:`SimulatorBackend`
looked up by name in :data:`BACKEND_REGISTRY`, mirroring the policy /
traffic / placement registries.  Three kernels ship with the repository:

``reference``
    The original loop: every router evaluates route computation, switch
    allocation and arrival commit every cycle.  Simple, obviously correct,
    and the semantic baseline every other kernel is tested against.

``optimized`` (the default)
    An active-set kernel: only routers that can possibly do work this cycle
    -- those holding at least one flit -- are evaluated, per-router state is
    flattened into indexed lists, and routes come from the precomputed
    tables of :class:`repro.routing.base.PrecomputedRoutes`.  At low
    injection rates, where most of the mesh is empty most of the time, this
    cuts per-cycle work from O(routers) to O(active routers).

``vectorized`` (requires numpy; registered only when numpy imports)
    A flat-array kernel for the high-load regime: flit/channel/credit/
    occupancy state lives in numpy arrays keyed by router index, with
    batched per-cycle route lookup, allocation and commit.  Near
    saturation -- where the active set degenerates to the whole mesh --
    this removes the per-flit interpreter overhead that caps the other
    kernels.

**Equivalence contract**: ``reference`` and ``optimized`` produce
*bit-identical* :class:`~repro.sim.engine.SimulationResult` data
(statistics counters, latency samples, drain accounting) for the same
network, packet source and seed; the cross-backend matrix in
``tests/test_backends.py`` enforces this, and a registered kernel that
diverges is a bug, not a variant.  One qualified exception: the
``vectorized`` kernel's *fast* allocation phase evaluates all routers
against the cycle-start occupancy snapshot, so under contention it honors
a documented tolerance contract instead (identical packet creation, flit
conservation, aggregates within a small band -- see its module
docstring).  The per-run ``bit_exact`` argument (threaded from
:class:`repro.spec.SimSpec`) switches it to a sequential allocation phase
that restores full bit-identity, which is how the matrix validates it.
``batched``, ``replica`` and ``multi-seed`` are aliases of ``vectorized``,
the one kernel with a replica axis (``batches_replicas``).

Registering a custom kernel (e.g. from a ``--plugin`` module)::

    from repro.obs.probes import network_reading
    from repro.sim.backends import SimulatorBackend, register_backend

    class MyStep:
        def __init__(self, network):
            self.network = network
            self.inject = network.inject
            self.step = network.step

        def create_packet(self, replica, source, destination, length, cycle):
            self.network.create_packet(source, destination, length, cycle)

        def replica_idle(self, replica):
            return self.network.is_idle()

        def probe_readings(self):
            return [network_reading(self.network)]

        def sync_back(self):
            pass

        def close(self):
            pass

    @register_backend("my_kernel", description="...")
    class MyKernel(SimulatorBackend):
        name = "my_kernel"

        def kernel(self, networks, *, bit_exact):
            return MyStep(networks[0])
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, Union

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network

#: Registry of simulation kernels.  Entries are classes (or zero-argument
#: factories) producing :class:`SimulatorBackend` instances.
BACKEND_REGISTRY: Registry = Registry("simulation backend")

#: Decorator registering a simulation kernel class by name.
register_backend = BACKEND_REGISTRY.register

#: The kernel used when a spec / Simulator does not name one.  Specs omit
#: the backend from their canonical serialization when it equals this, so
#: cache keys (and cached results) predating the backend field stay valid.
DEFAULT_BACKEND = "optimized"


class SimulatorBackend:
    """Base class for simulation kernels: a factory of per-run step objects.

    A backend holds no run state.  All simulation *state* (routers, buffers,
    statistics) lives in the :class:`~repro.sim.network.Network`, and the
    run lifecycle (:func:`repro.sim.engine.run_lifecycle`: cycle loop,
    scenario timeline, drain accounting, probes, results) is shared by
    every backend.  For each run the lifecycle asks :meth:`kernel` for a
    step object over the run's networks -- one per replica -- and drives
    it through:

    * ``create_packet(replica, source, destination, length, cycle)``;
    * ``inject(cycle)`` and ``step(cycle)``, once per cycle each;
    * ``replica_idle(replica)`` -- no queued or buffered flit left;
    * ``probe_readings()`` -- one reading per replica, strictly read-only;
    * ``sync_back()`` then ``close()`` at the end of the run, on every
      exit path: write kernel-side state back to the networks and detach.

    Attributes:
        name: Short backend name used in registries and reports.
        batches_replicas: Whether :meth:`kernel` accepts more than one
            network.  The batch engine groups seed-replicas only for such
            backends, and the lifecycle rejects R > 1 for the others.
    """

    name = "base"
    batches_replicas = False

    def kernel(self, networks: Sequence["Network"], *, bit_exact: bool):
        """A fresh step object over ``networks`` for one run.

        The networks are expected to carry no in-flight traffic or
        allocation state -- i.e. to be freshly constructed or ``reset()``.
        ``bit_exact`` asks for results bit-identical to ``reference``;
        inherently exact kernels ignore it.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"


def resolve_backend(
    backend: Union[str, SimulatorBackend, None] = None,
) -> SimulatorBackend:
    """Normalize a backend argument to a ready instance.

    Accepts ``None`` (the default backend), a registered name or alias, an
    instance, or a :class:`SimulatorBackend` subclass.

    Raises:
        repro.registry.UnknownComponentError: For unregistered names.
    """
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, SimulatorBackend):
        return backend
    if isinstance(backend, type) and issubclass(backend, SimulatorBackend):
        return backend()
    return BACKEND_REGISTRY.create(str(backend))


def available_backends() -> list:
    """Sorted canonical names of every registered simulation backend."""
    return BACKEND_REGISTRY.names()


# Import for the registration side effects: the bundled kernels register
# themselves on import, so they are usable by name everywhere.  The
# vectorized kernel needs numpy; on numpy-less installs it simply stays
# unregistered (everything else keeps working).
from repro.sim.backends import optimized as _optimized  # noqa: E402,F401
from repro.sim.backends import reference as _reference  # noqa: E402,F401

try:
    from repro.sim.backends import vectorized as _vectorized  # noqa: E402,F401
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _vectorized = None

__all__ = [
    "BACKEND_REGISTRY",
    "DEFAULT_BACKEND",
    "SimulatorBackend",
    "available_backends",
    "register_backend",
    "resolve_backend",
]
