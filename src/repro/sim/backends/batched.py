"""Batched replica execution: R seed-replicas through one kernel pass.

The mega-sweep workload fans one *structural* spec (same mesh, placement,
policy, routes) across many seeds and injection rates.  Run solo, every
replica pays the full per-cycle numpy dispatch overhead on a small mesh;
batched, R structurally identical replicas share one kernel whose node
axis is the disconnected union of the replicas (global node ``r * N +
local``; see :mod:`repro.sim.backends.vectorized`).  One batched
route/allocate/commit pass then serves all replicas per cycle, amortizing
the numpy call overhead R ways, while every replica keeps its own
:class:`~repro.sim.network.Network`, policy instance, RNG streams,
:class:`~repro.sim.stats.SimulationStats` and (optionally) its own
scenario timeline.

The hard invariant -- pinned by ``tests/test_replica_batch.py`` and the
``benchmarks/bench_engine_scaling.py`` gate -- is that each replica's
:class:`~repro.sim.engine.SimulationResult` is **bit-identical** to the
solo run of the same spec.  Both go through the same
:func:`repro.sim.engine.run_lifecycle`; :func:`run_replica_group` is the
group entry point (used by :class:`~repro.exec.batch.ExperimentBatch`
when ``replica_batch`` is set), :meth:`repro.sim.engine.Simulator.run` the
solo one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from repro.sim.backends import SimulatorBackend, resolve_backend
from repro.sim.engine import ReplicaRun, SimulationResult, run_lifecycle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.probes import ProbeSpec

__all__ = ["ReplicaRun", "run_replica_group"]


def run_replica_group(
    replicas: Sequence[ReplicaRun],
    *,
    warmup_cycles: int,
    measurement_cycles: int,
    drain_cycles: int,
    bit_exact: bool = False,
    backend: Union[str, SimulatorBackend, None] = "vectorized",
    probe: Optional["ProbeSpec"] = None,
) -> List[SimulationResult]:
    """Run R replicas through one kernel of ``backend``; one result each.

    See :func:`repro.sim.engine.run_lifecycle` for the per-replica
    semantics.  ``backend`` must batch replicas (``batches_replicas``)
    when more than one replica is given.
    """
    return run_lifecycle(
        resolve_backend(backend),
        replicas,
        warmup_cycles=warmup_cycles,
        measurement_cycles=measurement_cycles,
        drain_cycles=drain_cycles,
        bit_exact=bit_exact,
        probe=probe,
    )
