"""The optimized simulation kernel: active-set evaluation, flattened state.

Why it is faster
    At the injection rates the paper sweeps (Fig. 4's x-axis tops out
    around 0.012 packets/node/cycle), most routers hold no flit on any
    given cycle -- yet the reference kernel walks every port x VC buffer of
    every router three times per cycle.  This kernel makes per-cycle cost
    proportional to the traffic that actually exists:

    * only routers holding at least one flit (the *active set*) are
      evaluated, in ascending node-id order;
    * each active router iterates only its *occupied* input channels,
      tracked as a 14-bit occupancy mask, instead of all port x VC pairs;
    * routes come from the precomputed lookup tables of
      :class:`repro.routing.base.PrecomputedRoutes`;
    * end-of-cycle commits visit only the buffers that received a staged
      flit this cycle, and the idle check during drain is an O(1) counter
      comparison.

Active-set invariants
    * ``self.active`` *over-approximates* the routers holding flits: a node
      is added the moment a flit is staged into it (injection or link
      traversal) and removed only at end of cycle when its flit counter
      reaches zero.  Skipping a router outside the set is always safe -- it
      has no visible flit to route or arbitrate and nothing staged to
      commit.  The same over-approximation is mirrored into
      ``Network._active_routers`` so :meth:`Network.is_idle` stays truthful
      during and after an optimized run.
    * The per-router channel mask over-approximates occupied channels the
      same way: a bit is set when a flit is staged into the channel and
      cleared when a pop leaves it empty; every consumer re-checks actual
      occupancy before acting.
    * An *empty* router can still hold wormhole allocation state (a body
      flit convoy whose tail has not arrived keeps its input VC's route and
      output-VC ownership).  That state lives in this kernel's flat arrays
      and is deliberately **not** cleared by pruning: when the next flit of
      the convoy arrives, the router re-enters the active set and resumes
      with its allocation intact.
    * Routers are evaluated in ascending node-id order, exactly like the
      reference kernel's full scan.  Evaluation order is observable through
      downstream buffer occupancy (credit backpressure) and the order
      statistics accumulate, so it is part of the semantics, not a free
      choice.

Equivalence
    Packet creation routes through the same
    :class:`~repro.sim.network.Network` method the reference kernel uses.
    Injection, flit delivery and the end-of-cycle commit are inlined here,
    mirroring :meth:`Network.inject`, :meth:`Network.deliver_flit` and
    :meth:`FlitBuffer.commit` effect for effect and in the same order
    (queue visiting order; router-traversal count, source-side exit cycles
    and AdEle's latency feedback, ejection or link statistics, hop counts,
    staging), so the kernel can maintain its counters without a method
    call per flit.  Both guards of the reference path survive: a flit
    routed through a missing link raises ``RuntimeError`` and a flit staged
    into a full buffer raises ``OverflowError``.  For the duration of a run
    the kernel installs its per-router flit counter as the network's
    occupancy provider (:meth:`Network.set_occupancy_provider`), cleared in
    :meth:`_ActiveSetKernel.close`: packets are created between cycles,
    when nothing is staged, so the counter equals the visible occupancy
    CDA reads.  The cross-backend matrix in ``tests/test_backends.py``
    asserts bit-identical results.  One caveat: allocation state lives in
    this kernel's flat arrays, so the per-:class:`~repro.sim.router.Router`
    introspection dicts (``current_route`` / ``output_owner``) are stale
    *while* an optimized run executes; the kernel writes them back when the
    run completes (:meth:`_ActiveSetKernel.sync_back`), so a finished
    network -- even one left saturated with in-flight wormholes -- can be
    inspected, reset, or run again with either backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.sim.backends import SimulatorBackend, register_backend
from repro.sim.router import OPPOSITE_PORT, Port, VERTICAL_PORTS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.buffer import FlitBuffer
    from repro.sim.network import Network


class _ActiveSetKernel:
    """Per-run flattened state + the three-phase active-set cycle step."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        self.routes = network._route_computation.tables
        num_vcs = network.num_vcs
        self.num_vcs = num_vcs
        ports = list(Port)
        #: Input channels in arbitration order -- identical to
        #: ``Router._channel_order`` (port-major, VC-minor).
        self.channel_keys = [(port, vc) for port in ports for vc in range(num_vcs)]
        self.num_channels = len(self.channel_keys)
        #: Channel-index base of the input port a flit staged through a
        #: given output port lands on (``OPPOSITE_PORT * num_vcs``).
        self.opp_base = {
            out_port: OPPOSITE_PORT[out_port] * num_vcs
            for out_port in OPPOSITE_PORT
        }
        #: Per output port: whether its link is vertical (a TSV).
        self.vertical_port = [port in VERTICAL_PORTS for port in ports]

        #: Per router: input buffers in channel order.
        self.buffers: List[List["FlitBuffer"]] = []
        #: Per router: downstream input buffer per (output port, VC), or
        #: ``None`` when the link is missing (LOCAL entries are unused --
        #: ejection needs no space check).
        self.down: List[List[List[Optional["FlitBuffer"]]]] = []
        #: Per router: neighbour node id per output port (None = no link).
        self.neighbor_id: List[List[Optional[int]]] = []
        for router in network.routers:
            self.buffers.append(
                [router.input_buffers[key] for key in self.channel_keys]
            )
            per_port: List[List[Optional["FlitBuffer"]]] = []
            neighbors: List[Optional[int]] = []
            for port in ports:
                neighbor = (
                    None
                    if port == Port.LOCAL
                    else network.neighbor(router.node_id, port)
                )
                neighbors.append(neighbor)
                if neighbor is None:
                    per_port.append([None] * num_vcs)
                else:
                    in_port = OPPOSITE_PORT[port]
                    per_port.append(
                        [
                            network.routers[neighbor].buffer(in_port, vc)
                            for vc in range(num_vcs)
                        ]
                    )
            self.down.append(per_port)
            self.neighbor_id.append(neighbors)

        # Flat allocation state, seeded from the routers so a reset (or
        # fresh) network starts from the same blank slate the reference
        # kernel would.
        key_index = {key: i for i, key in enumerate(self.channel_keys)}
        self.route: List[List[Optional[Port]]] = []
        self.owner: List[List[Optional[int]]] = []
        self.rr: List[List[int]] = []
        for router in network.routers:
            self.route.append([router._route[key] for key in self.channel_keys])
            owners: List[Optional[int]] = [None] * self.num_channels
            for port in ports:
                for vc in range(num_vcs):
                    holder = router._output_owner[(port, vc)]
                    if holder is not None:
                        owners[port * num_vcs + vc] = key_index[holder]
            self.owner.append(owners)
            self.rr.append([router._rr_pointer[port] for port in ports])

        # Occupancy tracking: flits per router, occupied-channel bitmask
        # per router, total flits buffered network-wide, and the buffers
        # that received staged flits this cycle (commit worklist).
        self.count: List[int] = []
        self.mask: List[int] = []
        for bufs in self.buffers:
            mask = 0
            flits = 0
            for idx, buf in enumerate(bufs):
                occupancy = buf.total_occupancy
                if occupancy:
                    mask |= 1 << idx
                    flits += occupancy
            self.mask.append(mask)
            self.count.append(flits)
        self.total_flits = sum(self.count)
        self.active = {node for node, flits in enumerate(self.count) if flits}
        self.staged_buffers: List["FlitBuffer"] = []

        # Scenario topology events (elevator fault/repair) change vertical
        # links mid-run; the network notifies this kernel so the flattened
        # downstream tables are rebuilt incrementally -- only the affected
        # routers, only their vertical ports.
        network.add_topology_listener(self._on_topology_change)
        # CDA reads occupancy from the flit counters (see "Equivalence").
        network.set_occupancy_provider(self.count.__getitem__)

    def close(self) -> None:
        """Detach from the network (end of run)."""
        self.network.set_occupancy_provider(None)
        self.network.remove_topology_listener(self._on_topology_change)

    def _on_topology_change(self, nodes) -> None:
        """Rebuild the cached vertical-link structure of changed routers.

        Only ``down`` (downstream input buffers per output port/VC) and
        ``neighbor_id`` depend on link existence; allocation state, routes
        and occupancy counters describe flits, which a topology event never
        touches -- flits cut off from their path simply stall until a
        repair, exactly as under the reference kernel.
        """
        network = self.network
        num_vcs = self.num_vcs
        routers = network.routers
        for node in nodes:
            for port in VERTICAL_PORTS:
                neighbor = network.neighbor(node, port)
                self.neighbor_id[node][port] = neighbor
                if neighbor is None:
                    self.down[node][port] = [None] * num_vcs
                else:
                    in_port = OPPOSITE_PORT[port]
                    self.down[node][port] = [
                        routers[neighbor].buffer(in_port, vc)
                        for vc in range(num_vcs)
                    ]

    # ------------------------------------------------------------------ #
    def inject(self, cycle: int) -> None:
        """Drain live injection queues into LOCAL buffers (O(active)).

        Mirrors :meth:`repro.sim.network.Network.inject` exactly --
        same queue visiting order, same per-flit bookkeeping -- while
        updating the kernel's occupancy counters in the same pass.
        """
        network = self.network
        live = network._live_queues
        if not live:
            return
        stats = network.stats
        queues = network._injection_queues
        for key in sorted(live):
            queue = queues[key]
            node, vc = key
            # LOCAL is port 0, so the channel index of (LOCAL, vc) is vc.
            buf = self.buffers[node][vc]
            fifo = buf._fifo
            staged_flits = buf._staged
            depth = buf.depth
            staged = 0
            while queue and len(fifo) + len(staged_flits) < depth:
                flit = queue.popleft()
                packet = flit.packet
                if flit.flit_type.is_head and packet.injection_cycle is None:
                    packet.injection_cycle = cycle
                staged_flits.append(flit)
                staged += 1
                stats.record_flit_injected(packet, cycle)
            if staged:
                self.count[node] += staged
                self.total_flits += staged
                self.mask[node] |= 1 << vc
                self.active.add(node)
                network._active_routers.add(node)
                self.staged_buffers.append(buf)
            if not queue:
                live.discard(key)

    def create_packet(
        self, replica: int, source: int, destination: int, length: int, cycle: int
    ) -> None:
        self.network.create_packet(source, destination, length, cycle)

    def replica_idle(self, replica: int) -> bool:
        """Whether the network is drained -- O(1) via the flit counters.

        Decision-equivalent to :meth:`Network.is_idle`: no live injection
        queue and no flit buffered anywhere.
        """
        return not self.network._live_queues and self.total_flits == 0

    def probe_readings(self) -> List[dict]:
        """Sample the probe channels from the kernel's own counters.

        Read-only by construction (the never-perturbs invariant): one scan
        of the exact per-router flit counts, no pruning, no allocation
        state touched.  Definitionally identical to
        :func:`repro.obs.probes.network_reading` at the same cycle.
        """
        network = self.network
        mesh = network.mesh
        nodes_per_layer = mesh.nodes_per_layer
        per_layer = [0] * mesh.num_layers
        active = 0
        for node, flits in enumerate(self.count):
            if flits:
                active += 1
                per_layer[node // nodes_per_layer] += flits
        queues = network._injection_queues
        backlog = sum(len(queues[key]) for key in network._live_queues)
        return [{
            "active_routers": active,
            "in_flight_flits": self.total_flits,
            "injection_backlog": backlog,
            "layer_occupancy": per_layer,
        }]

    def step(self, cycle: int) -> None:
        """One cycle: route, allocate/traverse, commit -- active flits only."""
        network = self.network
        active = sorted(self.active)
        num_vcs = self.num_vcs
        port_for = self.routes.port_for
        all_buffers = self.buffers
        all_routes = self.route

        # Phase 1: route computation -- head flits at buffer fronts claim
        # an output port (held until their tail flit traverses).
        # The loops below read and write FlitBuffer internals (``_fifo`` /
        # ``_staged``) directly: this is the hottest code in the repository
        # and attribute loads beat method dispatch.  Every write mirrors a
        # buffer method -- ``pop``, ``stage`` with its full-buffer guard,
        # ``commit`` -- so the two-phase invariants hold as they do there.
        for node in active:
            bufs = all_buffers[node]
            route = all_routes[node]
            bits = self.mask[node]
            while bits:
                low = bits & -bits
                bits ^= low
                idx = low.bit_length() - 1
                if route[idx] is not None:
                    continue
                fifo = bufs[idx]._fifo
                if not fifo:
                    continue
                flit = fifo[0]
                if not flit.flit_type.is_head:
                    continue
                packet = flit.packet
                route[idx] = port_for(
                    node, packet.destination, packet.elevator_column
                )

        # Phase 2: switch allocation and traversal, ascending node order
        # (one flit per output port; round-robin over competing input VCs).
        # Each granted flit is delivered inline, mirroring
        # :meth:`Network.deliver_flit` effect for effect and in the same
        # order; the stats window and phase cannot change inside a step.
        stats = network.stats
        measuring = cycle >= stats.measurement_start
        measurement_start = stats.measurement_start
        phase = stats._phase
        traversals = stats.router_traversals
        traversals_get = traversals.get
        record_packet_delivered = stats.record_packet_delivered
        notify_source_latency = network.policy.notify_source_latency
        network_active = network._active_routers
        vertical_port = self.vertical_port
        neighbor_ids = self.neighbor_id
        opp_base = self.opp_base
        active_set = self.active
        num_channels = self.num_channels
        count = self.count
        mask = self.mask
        staged_buffers = self.staged_buffers
        for node in active:
            bufs = all_buffers[node]
            route = all_routes[node]
            requests = None
            bits = mask[node]
            while bits:
                low = bits & -bits
                bits ^= low
                idx = low.bit_length() - 1
                out_port = route[idx]
                if out_port is None or not bufs[idx]._fifo:
                    continue
                if requests is None:
                    requests = {}
                requests.setdefault(out_port, []).append(idx)
            if requests is None:
                continue
            owner = self.owner[node]
            rr = self.rr[node]
            down = self.down[node]
            for out_port, candidates in requests.items():
                pointer = rr[out_port] % num_channels
                if len(candidates) > 1:
                    candidates.sort(key=lambda i: (i - pointer) % num_channels)
                winner = None
                winner_vc = 0
                for idx in candidates:
                    fifo = bufs[idx]._fifo
                    if not fifo:
                        continue
                    flit = fifo[0]
                    out_vc = flit.packet.virtual_network
                    holder = owner[out_port * num_vcs + out_vc]
                    if flit.flit_type.is_head:
                        # A head flit needs the output VC free (or already
                        # its own in the single-flit re-request case).
                        if holder is not None and holder != idx:
                            continue
                    elif holder != idx:
                        # Body/tail flits only follow their own wormhole.
                        continue
                    if out_port != Port.LOCAL:
                        downstream = down[out_port][out_vc]
                        if downstream is None or (
                            len(downstream._fifo) + len(downstream._staged)
                            >= downstream.depth
                        ):
                            continue
                    winner = idx
                    winner_vc = out_vc
                    break
                if winner is None:
                    continue
                buf = bufs[winner]
                fifo = buf._fifo
                flit = fifo.popleft()
                flit_type = flit.flit_type
                is_head = flit_type.is_head
                is_tail = flit_type.is_tail
                out_key = out_port * num_vcs + winner_vc
                if is_head:
                    owner[out_key] = winner
                if is_tail:
                    owner[out_key] = None
                    route[winner] = None
                rr[out_port] = (winner + 1) % num_channels
                count[node] -= 1
                if not (fifo or buf._staged):
                    mask[node] &= ~(1 << winner)

                # Delivery: router traversal, source-side exit cycles,
                # then ejection or the link hop into the next buffer.
                packet = flit.packet
                if measuring:
                    traversals[node] = traversals_get(node, 0) + 1
                    if phase is not None:
                        phase.router_traversals += 1
                # LOCAL is port 0: channels below num_vcs are its VCs.
                if winner < num_vcs and node == packet.source:
                    if is_head:
                        packet.head_exit_cycle = cycle
                    if is_tail:
                        packet.tail_exit_cycle = cycle
                        metric = packet.source_serialization_latency()
                        if metric is not None and packet.elevator_index is not None:
                            notify_source_latency(
                                packet.source, packet.elevator_index, metric, cycle
                            )
                if out_port == Port.LOCAL:
                    self.total_flits -= 1
                    if packet.creation_cycle >= measurement_start:
                        stats.flits_delivered += 1
                        if phase is not None:
                            phase.flits_delivered += 1
                    if is_tail:
                        packet.delivery_cycle = cycle
                        record_packet_delivered(packet, cycle)
                        network._in_flight -= 1
                    continue

                neighbor = neighbor_ids[node][out_port]
                if neighbor is None:
                    raise RuntimeError(
                        "flit routed through missing link: "
                        f"node {node}, port {out_port}"
                    )
                vertical = vertical_port[out_port]
                if measuring:
                    if vertical:
                        stats.vertical_link_traversals += 1
                        if phase is not None:
                            phase.vertical_link_traversals += 1
                    else:
                        stats.horizontal_link_traversals += 1
                        if phase is not None:
                            phase.horizontal_link_traversals += 1
                if is_head:
                    packet.hops += 1
                    if vertical:
                        packet.vertical_hops += 1
                downstream = down[out_port][winner_vc]
                staged = downstream._staged
                if len(downstream._fifo) + len(staged) >= downstream.depth:
                    raise OverflowError(
                        "flit arrived at a full buffer (flow-control bug)"
                    )
                staged.append(flit)
                network_active.add(neighbor)
                count[neighbor] += 1
                mask[neighbor] |= 1 << (opp_base[out_port] + winner_vc)
                active_set.add(neighbor)
                staged_buffers.append(downstream)

        # Phase 3: commit the buffers that received staged flits this cycle
        # (:meth:`FlitBuffer.commit`, inlined; a buffer listed twice has
        # nothing left to move the second time) and prune routers whose
        # flit counter dropped to zero.  Pruning only drops iteration work
        # -- allocation state survives in the flat arrays (see the module
        # docstring's invariants).
        if staged_buffers:
            for buf in staged_buffers:
                staged = buf._staged
                if staged:
                    buf._fifo.extend(staged)
                    staged.clear()
            staged_buffers.clear()
        pruned = [node for node in active_set if not count[node]]
        for node in pruned:
            active_set.discard(node)

    def sync_back(self) -> None:
        """Write the flat allocation state back into the Router dicts.

        Run once when a simulation finishes: it restores the invariant that
        ``Router._route`` / ``_output_owner`` / ``_rr_pointer`` describe the
        network's true allocation state, so a network left mid-wormhole
        (e.g. after a saturated run) can be inspected or run again with
        either backend and behave exactly as it would have under the
        reference kernel.
        """
        channel_keys = self.channel_keys
        num_vcs = self.num_vcs
        for node, router in enumerate(self.network.routers):
            route = self.route[node]
            for idx, key in enumerate(channel_keys):
                router._route[key] = route[idx]
            owner = self.owner[node]
            rr = self.rr[node]
            for port in Port:
                base = port * num_vcs
                for vc in range(num_vcs):
                    holder = owner[base + vc]
                    router._output_owner[(port, vc)] = (
                        None if holder is None else channel_keys[holder]
                    )
                router._rr_pointer[port] = rr[port]


@register_backend(
    "optimized",
    aliases=("active-set", "active_set"),
    description="active-set kernel: skips idle routers, precomputed routes (default)",
)
class OptimizedBackend(SimulatorBackend):
    """Active-set simulation kernel (see module docstring)."""

    name = "optimized"

    def kernel(
        self, networks: Sequence["Network"], *, bit_exact: bool
    ) -> _ActiveSetKernel:
        return _ActiveSetKernel(networks[0])
