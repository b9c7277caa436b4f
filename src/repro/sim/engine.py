"""Simulation driver: the one run lifecycle.

The :class:`Simulator` connects a :class:`~repro.sim.network.Network` with a
:class:`~repro.traffic.generator.PacketSource` and runs the cycle loop:

* *warm-up* cycles fill the network with traffic but are not measured;
* *measurement* cycles feed the statistics;
* *drain* cycles stop injecting new traffic and give in-flight packets a
  bounded amount of time to reach their destinations (an over-saturated
  network will not drain, which is expected at injection rates past the
  saturation point).

That loop, with scenario begin/finalize, per-replica drain accounting,
probe sampling and result assembly, is written once, in
:func:`run_lifecycle`.  :meth:`Simulator.run` drives it with one replica;
:func:`repro.sim.backends.batched.run_replica_group` drives it with R
seed-replicas through one multi-network kernel.

Each cycle is executed by a pluggable kernel -- the step object a
:class:`~repro.sim.backends.SimulatorBackend` (resolved by name through
:data:`~repro.sim.backends.BACKEND_REGISTRY`, ``optimized`` by default)
builds for the run.  ``reference`` and ``optimized`` are bit-identical.
``vectorized`` is bit-identical to them only with ``bit_exact``; its
default fast mode honors a tolerance contract instead (identical packet
creation, flit conservation, aggregates within a small band; see
:mod:`repro.sim.backends.vectorized`).

The result object bundles the statistics with derived, report-ready metrics
(average latency, throughput, energy per flit when an energy model is
supplied).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.energy.model import EnergyModel
from repro.scenario.runtime import ScenarioRuntime
from repro.scenario.spec import ScenarioSpec
from repro.sim.backends import SimulatorBackend, resolve_backend
from repro.sim.network import Network
from repro.sim.stats import SimulationStats
from repro.traffic.generator import PacketSource


@dataclass
class SimulationResult:
    """Outcome of one simulation run.

    Attributes:
        stats: Raw event counters.
        warmup_cycles: Number of unmeasured warm-up cycles.
        measurement_cycles: Number of measured cycles.
        drain_cycles_used: Drain cycles actually simulated.
        num_nodes: Network size (routers).
        average_latency: Mean end-to-end packet latency in cycles.
        throughput: Accepted flits per node per cycle over the measurement
            window.
        energy_per_flit: Mean energy per delivered flit in Joules (``None``
            when no energy model was supplied).
        total_energy: Total network energy in Joules over the measurement
            window (``None`` without an energy model).
        policy_name: Name of the elevator-selection policy that produced the
            run (for reporting).
        backend_name: Name of the simulation kernel that executed the run
            (for reporting only; it never appears in :meth:`summary` -- a
            non-default backend is part of the spec's cache key instead).
        probe: The sampled :class:`~repro.obs.probes.ProbeSeries` of a
            probed run (``None`` otherwise).  Deliberately excluded from
            :meth:`summary` -- cached rows must be byte-identical whether
            or not the run was observed.
    """

    stats: SimulationStats
    warmup_cycles: int
    measurement_cycles: int
    drain_cycles_used: int
    num_nodes: int
    average_latency: float
    throughput: float
    energy_per_flit: Optional[float] = None
    total_energy: Optional[float] = None
    policy_name: str = ""
    backend_name: str = ""
    extra: Dict[str, float] = field(default_factory=dict)
    probe: Optional[Any] = None

    @property
    def delivered_packets(self) -> int:
        """Number of measured packets delivered."""
        return self.stats.packets_delivered

    @property
    def saturated(self) -> bool:
        """Heuristic saturation flag: most measured packets never arrived."""
        return self.stats.delivery_ratio < 0.5

    @property
    def phases(self):
        """Per-phase measurement windows of a scenario run (may be empty)."""
        return self.stats.phases

    def summary(self) -> Dict[str, Any]:
        """A flat dictionary of headline metrics (for tables and benches).

        Scenario runs additionally carry a ``"phases"`` key holding one
        JSON-native row per measurement window
        (:meth:`repro.sim.stats.PhaseStats.to_summary`); scenario-free runs
        keep the exact historical shape, so cached rows stay comparable.
        """
        summary: Dict[str, Any] = {
            "average_latency": self.average_latency,
            "throughput": self.throughput,
            "packets_delivered": float(self.stats.packets_delivered),
            "packets_created": float(self.stats.packets_created),
            "delivery_ratio": self.stats.delivery_ratio,
            "average_hops": self.stats.average_hops,
        }
        if self.energy_per_flit is not None:
            summary["energy_per_flit"] = self.energy_per_flit
        if self.total_energy is not None:
            summary["total_energy"] = self.total_energy
        summary.update(self.extra)
        if self.stats.phases:
            summary["phases"] = [
                phase.to_summary() for phase in self.stats.phases
            ]
        return summary


@dataclass
class ReplicaRun:
    """One replica's inputs to :func:`run_lifecycle`.

    The network and packet source must be freshly built (or ``reset``) for
    this replica.  Replicas of one group run interleaved, so each needs its
    *own* placement object when a scenario is attached: fault events
    mutate the placement.
    """

    network: Network
    packet_source: PacketSource
    scenario: Optional[ScenarioSpec] = None
    scenario_seed: int = 0
    energy_model: Optional[EnergyModel] = None


def _check_cycles(warmup_cycles: int, measurement_cycles: int, drain_cycles: int) -> None:
    if warmup_cycles < 0 or measurement_cycles <= 0 or drain_cycles < 0:
        raise ValueError("invalid cycle configuration")


def run_lifecycle(
    backend: SimulatorBackend,
    replicas: Sequence[ReplicaRun],
    *,
    warmup_cycles: int,
    measurement_cycles: int,
    drain_cycles: int,
    bit_exact: bool = False,
    probe: Optional[Any] = None,
) -> List[SimulationResult]:
    """Run R replicas through one kernel of ``backend``; one result each.

    Each replica observes exactly the cycle sequence of a solo run: its own
    measurement window, its scenario timeline advanced through its own
    packet-source wrapper, and its own drain accounting -- a replica's
    ``drain_cycles_used`` counts the cycles until *it* went idle (idle is
    monotone during drain: sources are not polled, so a drained replica
    stays drained while stragglers keep stepping).

    Args:
        backend: Kernel factory; must set ``batches_replicas`` for R > 1.
        replicas: Per-replica inputs (structurally identical networks).
        bit_exact: Ask the kernel for results bit-identical to
            ``reference`` (kernels that are exact anyway ignore it).
        probe: Optional :class:`~repro.obs.probes.ProbeSpec`; each result
            then carries its replica's sampled series in ``probe``.

    Raises:
        ValueError: Invalid cycle counts, or R > 1 on a backend whose
            kernel takes one network.
    """
    _check_cycles(warmup_cycles, measurement_cycles, drain_cycles)
    count = len(replicas)
    if count > 1 and not backend.batches_replicas:
        raise ValueError(
            f"backend {backend.name!r} runs one network per kernel, "
            f"got {count} replicas"
        )
    if not count:
        return []
    injection_end = warmup_cycles + measurement_cycles

    sources: List[PacketSource] = []
    runtimes: List[Optional[ScenarioRuntime]] = []
    for replica in replicas:
        replica.network.stats.measurement_start = warmup_cycles
        source = replica.packet_source
        runtime: Optional[ScenarioRuntime] = None
        if replica.scenario is not None:
            runtime = ScenarioRuntime(
                replica.scenario,
                network=replica.network,
                source=source,
                base_seed=replica.scenario_seed,
                injection_end=injection_end,
            )
            runtime.begin()
            source = runtime.packet_source
        sources.append(source)
        runtimes.append(runtime)

    drain_used = [0] * count
    series = None if probe is None else [probe.series() for _ in replicas]
    try:
        kernel = backend.kernel(
            [replica.network for replica in replicas], bit_exact=bit_exact
        )
        create_packet = kernel.create_packet
        inject = kernel.inject
        step = kernel.step

        def sample(cycle: int) -> None:
            if series is not None and probe.should_sample(cycle):
                for item, reading in zip(series, kernel.probe_readings()):
                    item.append(cycle, reading)

        # The inner finally keeps the networks readable on *every* exit
        # path: a packet source or policy raising mid-run must not leave
        # allocation state stale or a listener attached.
        try:
            for cycle in range(injection_end):
                for index, source in enumerate(sources):
                    for request in source.requests(cycle):
                        create_packet(
                            index, request.source, request.destination,
                            request.length, cycle,
                        )
                inject(cycle)
                step(cycle)
                sample(cycle)

            for drain in range(drain_cycles):
                active = [
                    index for index in range(count)
                    if not kernel.replica_idle(index)
                ]
                if not active:
                    break
                cycle = injection_end + drain
                inject(cycle)
                step(cycle)
                for index in active:
                    drain_used[index] = drain + 1
                sample(cycle)
        finally:
            kernel.sync_back()
            kernel.close()
    finally:
        # Close the final phase window and undo scenario mutations on
        # every exit path, so shared placements never leak fault state.
        for runtime, used in zip(runtimes, drain_used):
            if runtime is not None:
                runtime.finalize(injection_end + used)

    results: List[SimulationResult] = []
    for index, replica in enumerate(replicas):
        network = replica.network
        stats = network.stats
        result = SimulationResult(
            stats=stats,
            probe=None if series is None else series[index],
            warmup_cycles=warmup_cycles,
            measurement_cycles=measurement_cycles,
            drain_cycles_used=drain_used[index],
            num_nodes=network.mesh.num_nodes,
            average_latency=stats.average_latency,
            throughput=stats.throughput(
                measurement_cycles, network.mesh.num_nodes
            ),
            policy_name=network.policy.name,
            backend_name=backend.name,
        )
        energy_model = replica.energy_model
        if energy_model is not None:
            total = energy_model.total_energy(stats)
            result.total_energy = total
            if stats.flits_delivered > 0:
                result.energy_per_flit = total / stats.flits_delivered
            else:
                result.energy_per_flit = 0.0
            for phase in stats.phases:
                phase.energy_j = energy_model.phase_energy(phase)
        results.append(result)
    return results


class Simulator:
    """Runs a network + packet source for a configured number of cycles.

    Args:
        network: The network under test.
        packet_source: Traffic injector.
        warmup_cycles: Unmeasured cycles at the start of the run.
        measurement_cycles: Measured cycles.
        drain_cycles: Maximum extra cycles (with injection stopped) granted
            for in-flight packets to arrive.
        energy_model: Optional energy model used to derive energy metrics.
        backend: Simulation kernel executing the cycle loop -- a registered
            backend name/alias, a :class:`~repro.sim.backends.SimulatorBackend`
            instance, or ``None`` for the default (``optimized``).
        scenario: Optional event timeline executed against the run (traffic
            phases, rate ramps, elevator faults/repairs, markers).  The
            dispatcher threads through *every* backend via the packet
            source, so scenario runs stay bit-identical across kernels; the
            statistics gain per-phase measurement windows.
        scenario_seed: Seed that phase traffic patterns derive theirs from
            (the experiment seed, for spec-driven runs).
        bit_exact: Ask the kernel for results bit-identical to the
            ``reference`` kernel even where its fast path only honors the
            documented tolerance contract (the ``vectorized`` backend; the
            other kernels are inherently exact and ignore the flag).
        probe: Optional :class:`~repro.obs.probes.ProbeSpec` asking the
            kernel to sample per-cycle congestion gauges into
            ``result.probe``.  Never a spec field, never part of cache
            keys or summaries (see :mod:`repro.obs`).

    ``bit_exact`` and ``probe`` are arguments of this run only; the backend
    instance holds no run state, so one instance can serve any number of
    simulators.
    """

    def __init__(
        self,
        network: Network,
        packet_source: PacketSource,
        warmup_cycles: int = 500,
        measurement_cycles: int = 2000,
        drain_cycles: int = 1000,
        energy_model: Optional[EnergyModel] = None,
        backend: Union[str, SimulatorBackend, None] = None,
        scenario: Optional[ScenarioSpec] = None,
        scenario_seed: int = 0,
        bit_exact: bool = False,
        probe: Optional[Any] = None,
    ) -> None:
        _check_cycles(warmup_cycles, measurement_cycles, drain_cycles)
        self.network = network
        self.packet_source = packet_source
        self.warmup_cycles = warmup_cycles
        self.measurement_cycles = measurement_cycles
        self.drain_cycles = drain_cycles
        self.energy_model = energy_model
        self.backend = resolve_backend(backend)
        self.scenario = scenario
        self.scenario_seed = scenario_seed
        self.bit_exact = bit_exact
        self.probe = probe

    def run(self) -> SimulationResult:
        """Execute the simulation and return its result."""
        [result] = run_lifecycle(
            self.backend,
            [
                ReplicaRun(
                    network=self.network,
                    packet_source=self.packet_source,
                    scenario=self.scenario,
                    scenario_seed=self.scenario_seed,
                    energy_model=self.energy_model,
                )
            ],
            warmup_cycles=self.warmup_cycles,
            measurement_cycles=self.measurement_cycles,
            drain_cycles=self.drain_cycles,
            bit_exact=self.bit_exact,
            probe=self.probe,
        )
        return result


def run_simulation(
    network: Network,
    packet_source: PacketSource,
    warmup_cycles: int = 500,
    measurement_cycles: int = 2000,
    drain_cycles: int = 1000,
    energy_model: Optional[EnergyModel] = None,
    backend: Union[str, SimulatorBackend, None] = None,
    scenario: Optional[ScenarioSpec] = None,
    scenario_seed: int = 0,
    bit_exact: bool = False,
    probe: Optional[Any] = None,
) -> SimulationResult:
    """Convenience wrapper building and running a :class:`Simulator`."""
    simulator = Simulator(
        network,
        packet_source,
        warmup_cycles=warmup_cycles,
        measurement_cycles=measurement_cycles,
        drain_cycles=drain_cycles,
        energy_model=energy_model,
        backend=backend,
        scenario=scenario,
        scenario_seed=scenario_seed,
        bit_exact=bit_exact,
        probe=probe,
    )
    return simulator.run()
