"""CDA: congestion-aware dynamic elevator assignment (baseline 2).

CDA (Fu et al., ISCAS 2019) selects, for every inter-layer packet, the
elevator minimizing a congestion cost computed from the *buffer utilization
of the routers between the source and the elevator*.  That requires global
(at least layer-wide) occupancy information at every router; the paper
treats this optimistically -- "we ... assume that the information is
instantaneously received at every router" -- and this implementation does
the same by querying the live simulator state.

The cost of an elevator is the distance from the source to the elevator
plus the instantaneous buffer occupancy of the routers along that path
(congestion term).  Following the description in the AdEle paper, the
destination side of the path is *not* part of CDA's cost -- the scheme is
driven by source-to-elevator congestion -- so under zero load CDA degrades
to the nearest-elevator choice of Elevator-First and spreads traffic to
farther elevators only when the near ones congest.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.routing.base import ElevatorSelectionPolicy, path_nodes, register_policy
from repro.topology.elevators import Elevator, ElevatorPlacement
from repro.topology.mesh3d import Coordinate

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.network import Network


@register_policy(
    "cda",
    description="congestion-aware dynamic assignment with global occupancy (baseline 2)",
)
class CDAPolicy(ElevatorSelectionPolicy):
    """Congestion-aware dynamic elevator assignment.

    Args:
        placement: Elevator placement.
        congestion_weight: Weight of the aggregate buffer occupancy along the
            source-to-elevator path, in hop-equivalents per buffered flit.
        update_period: How often (in cycles) the global occupancy snapshot is
            refreshed.  ``1`` is the paper's optimistic instantaneous-sharing
            assumption: no snapshot is kept, and each selection reads the
            live occupancy of just the routers on its candidates' paths,
            which selects exactly what a full-mesh snapshot taken at that
            moment would.  Larger values model the staleness a real
            implementation would incur and are used by the ablation bench.
    """

    name = "cda"

    def __init__(
        self,
        placement: ElevatorPlacement,
        congestion_weight: float = 1.0,
        update_period: int = 1,
    ) -> None:
        super().__init__(placement)
        if congestion_weight < 0:
            raise ValueError("congestion_weight must be non-negative")
        if update_period < 1:
            raise ValueError("update_period must be >= 1")
        self.congestion_weight = congestion_weight
        self.update_period = update_period
        self._snapshot: Dict[int, int] = {}
        self._snapshot_cycle: Optional[int] = None
        # Intra-layer path from every source to every elevator (on the
        # source's layer) is static, so precompute the node lists once.
        self._paths: Dict[Tuple[int, int], List[int]] = {}

    def reset(self) -> None:
        """Drop the cached occupancy snapshot (fresh simulation)."""
        self._snapshot = {}
        self._snapshot_cycle = None

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #
    def _select(
        self,
        source: int,
        destination: int,
        network: Optional["Network"],
        cycle: int,
    ) -> Elevator:
        occupancy_of = self._occupancy_reader(network, cycle)
        source_coord = self.mesh.coordinate(source)
        candidates = self.placement.healthy_elevators()
        best: Optional[Elevator] = None
        best_cost = float("inf")
        for elevator in candidates:
            cost = self._cost(source, source_coord, elevator, occupancy_of)
            if cost < best_cost:
                best = elevator
                best_cost = cost
        assert best is not None
        return best

    def _occupancy_reader(
        self, network: Optional["Network"], cycle: int
    ) -> Optional[Callable[[int], int]]:
        """Per-node buffer occupancy visible to the routers this cycle.

        In the instantaneous mode (``update_period == 1``) this is the live
        :meth:`Network.buffer_occupancy` itself, so a selection reads only
        the routers on its candidates' source-to-elevator paths -- the
        same values a full-mesh snapshot taken now would hold for them.
        Stale modes read a full-mesh snapshot refreshed every
        ``update_period`` cycles.  ``None`` means no congestion term.
        """
        if network is None or self.congestion_weight == 0:
            return None
        if self.update_period == 1:
            return network.buffer_occupancy
        due = (
            self._snapshot_cycle is None
            or cycle - self._snapshot_cycle >= self.update_period
        )
        if due:
            self._snapshot = {
                node: network.buffer_occupancy(node)
                for node in self.mesh.nodes()
            }
            self._snapshot_cycle = cycle
        return self._snapshot.__getitem__

    def _cost(
        self,
        source: int,
        source_coord: Coordinate,
        elevator: Elevator,
        occupancy_of: Optional[Callable[[int], int]],
    ) -> float:
        distance = abs(source_coord.x - elevator.x) + abs(source_coord.y - elevator.y)
        congestion = 0.0
        if occupancy_of is not None:
            for node in self._path_to_elevator(source, elevator):
                congestion += occupancy_of(node)
        return distance + self.congestion_weight * congestion

    def _path_to_elevator(self, source: int, elevator: Elevator) -> List[int]:
        """Nodes of the intra-layer path from the source to the elevator."""
        key = (source, elevator.index)
        path = self._paths.get(key)
        if path is None:
            source_layer = self.mesh.coordinate(source).z
            elevator_node = self.placement.elevator_node(elevator, source_layer)
            if elevator_node == source:
                path = [source]
            else:
                path = path_nodes(
                    self.mesh, source, elevator_node, elevator.column
                )
            self._paths[key] = path
        return path
