"""The reference simulation kernel: full per-router scans every cycle.

Its step object is a thin adapter over the network's own methods
(:meth:`repro.sim.network.Network.inject` / ``step`` / ``is_idle``):
every cycle, every router computes routes, performs switch
allocation/traversal, and commits staged arrivals, regardless of whether it
holds any flit.  It stays the semantic baseline the ``optimized`` kernel is
checked against -- slow, simple, and exercising exactly the per-router code
paths the unit tests pin down.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.obs.probes import network_reading
from repro.sim.backends import SimulatorBackend, register_backend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network


class _NetworkKernel:
    """Step object over one :class:`Network`'s own full-scan methods."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        self.inject = network.inject
        self.step = network.step

    def create_packet(
        self, replica: int, source: int, destination: int, length: int, cycle: int
    ) -> None:
        self.network.create_packet(source, destination, length, cycle)

    def replica_idle(self, replica: int) -> bool:
        return self.network.is_idle()

    def probe_readings(self) -> List[dict]:
        return [network_reading(self.network)]

    def sync_back(self) -> None:
        """Nothing to write back: all state lives in the network."""

    def close(self) -> None:
        """Nothing to detach."""


@register_backend(
    "reference",
    aliases=("naive", "full-scan"),
    description="full per-router scan every cycle (semantic baseline)",
)
class ReferenceBackend(SimulatorBackend):
    """Original full-scan cycle loop (see module docstring)."""

    name = "reference"

    def kernel(
        self, networks: Sequence["Network"], *, bit_exact: bool
    ) -> _NetworkKernel:
        return _NetworkKernel(networks[0])
