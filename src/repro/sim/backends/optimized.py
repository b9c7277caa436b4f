"""The optimized simulation kernel: active-set evaluation, flattened state.

Why it is faster
    At the injection rates the paper sweeps (Fig. 4's x-axis tops out
    around 0.012 packets/node/cycle), most routers hold no flit on any
    given cycle -- yet the reference kernel walks every port x VC buffer of
    every router three times per cycle.  This kernel makes per-cycle cost
    proportional to the traffic that actually exists:

    * only routers holding at least one flit (the *active set*) are
      evaluated, and only their *occupied* input channels (a 14-bit mask);
    * routes come from the precomputed lookup tables of
      :class:`repro.routing.base.PrecomputedRoutes`;
    * each output port's requests form a bitmask over the input channels,
      arbitrated by walking it rotated at the round-robin pointer;
    * buffers are reached through flat tables of their own ``_fifo`` /
      ``_staged`` objects; the commit visits only buffers that received a
      staged flit, and the drain-time idle check is an O(1) comparison.

One scan, then the commit
    The reference kernel makes three passes per cycle: route computation
    over all routers, allocation and traversal over all routers, commit.
    Here the first two are one ascending node-id scan that routes,
    arbitrates and traverses router by router, followed by the commit.
    The order of everything observable is kept:

    * a router's routes depend only on its own buffer fronts and on
      ``port_for``, a pure table lookup; another router's traversal only
      *stages* flits, invisible until the commit, so routing a router just
      before its own allocation picks the same ports as a separate pass;
    * within a router, output ports are served in first-request order and
      candidates in ``(channel - pointer) % num_channels`` order, as in the
      reference kernel, which fixes the order of AdEle's
      ``notify_source_latency`` calls and of ``record_packet_delivered``;
    * routers are visited in ascending node-id order, so a slot freed by a
      pop is seen by the higher-id routers after it, exactly as in the
      reference kernel's full scan.  That order is observable through
      credit backpressure and statistics order, so it is semantics.

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

Equivalence
    Packet creation goes through the same :class:`~repro.sim.network.Network`
    method the reference kernel uses.  Injection (with its
    ``record_flit_injected`` statistics), flit delivery and the commit are
    inlined, mirroring :meth:`Network.inject`, :meth:`Network.deliver_flit`
    and :meth:`FlitBuffer.commit` effect for effect and in the same order,
    so the kernel maintains its counters without a method call per flit.
    Both guards survive: a flit routed through a missing link raises
    ``RuntimeError``; a flit staged into a full buffer, ``OverflowError``.
    During a run the per-router flit counter is the network's occupancy
    provider (:meth:`Network.set_occupancy_provider`, cleared in
    :meth:`_ActiveSetKernel.close`): packets are created between cycles,
    when nothing is staged, so it equals the visible occupancy CDA reads.
    The cross-backend matrix in ``tests/test_backends.py`` asserts
    bit-identical results.  Allocation state lives in the flat arrays, so
    the :class:`~repro.sim.router.Router` introspection dicts are stale
    *while* a run executes; :meth:`_ActiveSetKernel.sync_back` writes them
    back at the end, so a finished network -- even one left saturated
    with in-flight wormholes -- can be inspected, reset or run again with
    either backend.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Deque, List, Optional, Sequence, Tuple

from repro.sim.backends import SimulatorBackend, register_backend
from repro.sim.router import OPPOSITE_PORT, Port, VERTICAL_PORTS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.flit import Flit
    from repro.sim.network import Network


class _ActiveSetKernel:
    """Per-run flattened state + the one-scan active-set cycle step."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        self.routes = network._route_computation.tables
        num_vcs = network.num_vcs
        self.num_vcs = num_vcs
        #: Every input buffer has this depth (``Network.buffer_depth``).
        self.depth = network.buffer_depth
        ports = list(Port)
        #: Input channels in arbitration order -- identical to
        #: ``Router._channel_order`` (port-major, VC-minor).
        self.channel_keys = [(port, vc) for port in ports for vc in range(num_vcs)]
        num_channels = self.num_channels = len(self.channel_keys)
        #: Channel-index base of the input port a flit staged through a
        #: given output port lands on (``OPPOSITE_PORT * num_vcs``).
        self.opp_base = {
            out_port: OPPOSITE_PORT[out_port] * num_vcs
            for out_port in OPPOSITE_PORT
        }
        #: Per output port: whether its link is vertical (a TSV).
        self.vertical_port = [port in VERTICAL_PORTS for port in ports]

        #: Per router, in channel order: each input buffer's visible FIFO
        #: and staged-arrival list -- the ``FlitBuffer``'s own objects.
        self.fifos: List[List[Deque["Flit"]]] = []
        self.staged: List[List[List["Flit"]]] = []
        #: Per router, per output channel (``out_port * num_vcs + vc``): the
        #: downstream input buffer's FIFO and staged list, ``None`` when
        #: the link is missing (LOCAL entries stay ``None`` -- ejection
        #: needs no space check).
        self.down_fifo: List[List[Optional[Deque["Flit"]]]] = []
        self.down_staged: List[List[Optional[List["Flit"]]]] = []
        #: Per router: neighbour node id per output port (None = no link).
        self.neighbor_id: List[List[Optional[int]]] = []
        for router in network.routers:
            bufs = [router.input_buffers[key] for key in self.channel_keys]
            self.fifos.append([buf._fifo for buf in bufs])
            self.staged.append([buf._staged for buf in bufs])
            self.down_fifo.append([None] * num_channels)
            self.down_staged.append([None] * num_channels)
            self.neighbor_id.append([None] * len(ports))
            for port in ports[1:]:
                self._link(router.node_id, port)

        # Flat allocation state, seeded from the routers so a reset (or
        # fresh) network starts from the same blank slate the reference
        # kernel would.
        key_index = {key: i for i, key in enumerate(self.channel_keys)}
        self.route: List[List[Optional[Port]]] = []
        self.owner: List[List[Optional[int]]] = []
        self.rr: List[List[int]] = []
        for router in network.routers:
            self.route.append([router._route[key] for key in self.channel_keys])
            owners: List[Optional[int]] = [None] * num_channels
            for port in ports:
                for vc in range(num_vcs):
                    holder = router._output_owner[(port, vc)]
                    if holder is not None:
                        owners[port * num_vcs + vc] = key_index[holder]
            self.owner.append(owners)
            self.rr.append([router._rr_pointer[port] % num_channels for port in ports])

        # Occupancy tracking: flits per router, occupied-channel bitmask
        # per router, total flits buffered network-wide, and the
        # (fifo, staged) pairs that received staged flits this cycle
        # (commit worklist).
        self.count: List[int] = []
        self.mask: List[int] = []
        for fifos, staged in zip(self.fifos, self.staged):
            mask = 0
            flits = 0
            for idx, fifo in enumerate(fifos):
                occupancy = len(fifo) + len(staged[idx])
                if occupancy:
                    mask |= 1 << idx
                    flits += occupancy
            self.mask.append(mask)
            self.count.append(flits)
        self.total_flits = sum(self.count)
        self.active = {node for node, flits in enumerate(self.count) if flits}
        self.commits: List[Tuple[Deque["Flit"], List["Flit"]]] = []

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

    def _link(self, node: int, port: Port) -> None:
        """Point one output port's table entries at its current neighbour."""
        neighbor = self.network.neighbor(node, port)
        self.neighbor_id[node][port] = neighbor
        for vc in range(self.num_vcs):
            buf = None if neighbor is None else self.network.routers[neighbor].buffer(
                OPPOSITE_PORT[port], vc
            )
            out_key = port * self.num_vcs + vc
            self.down_fifo[node][out_key] = None if buf is None else buf._fifo
            self.down_staged[node][out_key] = None if buf is None else buf._staged

    def _on_topology_change(self, nodes) -> None:
        """Rebuild the cached vertical-link structure of changed routers.

        Only the downstream tables and ``neighbor_id`` depend on link
        existence; allocation state, routes and occupancy counters describe
        flits, which a topology event never touches -- flits cut off from
        their path simply stall until a repair, exactly as under the
        reference kernel.
        """
        for node in nodes:
            for port in VERTICAL_PORTS:
                self._link(node, port)

    # ------------------------------------------------------------------ #
    def inject(self, cycle: int) -> None:
        """Drain live injection queues into LOCAL buffers (O(active)).

        Mirrors :meth:`repro.sim.network.Network.inject` and
        :meth:`SimulationStats.record_flit_injected` exactly -- same queue
        visiting order, same per-flit bookkeeping -- while updating the
        kernel's occupancy counters in the same pass.
        """
        network = self.network
        live = network._live_queues
        if not live:
            return
        stats = network.stats
        measurement_start = stats.measurement_start
        phase = stats._phase
        queues = network._injection_queues
        depth = self.depth
        for key in sorted(live):
            queue = queues[key]
            node, vc = key
            # LOCAL is port 0, so the channel index of (LOCAL, vc) is vc.
            fifo = self.fifos[node][vc]
            staged_flits = self.staged[node][vc]
            staged = 0
            while queue and len(fifo) + len(staged_flits) < depth:
                flit = queue.popleft()
                packet = flit.packet
                if flit.flit_type.is_head and packet.injection_cycle is None:
                    packet.injection_cycle = cycle
                staged_flits.append(flit)
                staged += 1
                if packet.creation_cycle >= measurement_start:
                    stats.flits_injected += 1
                    if phase is not None:
                        phase.flits_injected += 1
            if staged:
                self.count[node] += staged
                self.total_flits += staged
                self.mask[node] |= 1 << vc
                self.active.add(node)
                network._active_routers.add(node)
                self.commits.append((fifo, staged_flits))
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
        """One cycle: one ascending scan over the active routers (route,
        allocate, traverse), then the commit."""
        network = self.network
        num_vcs = self.num_vcs
        num_channels = self.num_channels
        depth = self.depth
        port_for = self.routes.port_for
        # The loops below read and write FlitBuffer internals (the flat
        # ``_fifo`` / ``_staged`` tables) directly: this is the hottest code
        # in the repository and attribute loads beat method dispatch.  Every
        # write mirrors a buffer method -- ``pop``, ``stage`` with its
        # full-buffer guard, ``commit`` -- so the two-phase invariants hold
        # as they do there.  Each granted flit is delivered inline,
        # mirroring :meth:`Network.deliver_flit` effect for effect and in
        # the same order; the stats window and phase cannot change inside a
        # step.
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
        opp_base = self.opp_base
        active_set = self.active
        count = self.count
        mask = self.mask
        commits = self.commits
        all_fifos = self.fifos
        all_staged = self.staged
        all_routes = self.route
        all_owners = self.owner
        all_rr = self.rr
        all_down_fifo = self.down_fifo
        all_down_staged = self.down_staged
        neighbor_ids = self.neighbor_id
        # Routers whose last flit left during the scan; pruned after the
        # commit unless a later router staged a flit into them.
        emptied = []
        for node in sorted(active_set):
            fifos = all_fifos[node]
            route = all_routes[node]
            # Route computation for head flits at buffer fronts (held until
            # their tail traverses), and one request bitmask per output
            # port; the dict keeps ports in first-request order.
            requests = None
            bits = mask[node]
            while bits:
                low = bits & -bits
                bits ^= low
                idx = low.bit_length() - 1
                fifo = fifos[idx]
                if not fifo:
                    continue
                out_port = route[idx]
                if out_port is None:
                    flit = fifo[0]
                    if not flit.flit_type.is_head:
                        continue
                    packet = flit.packet
                    out_port = route[idx] = port_for(
                        node, packet.destination, packet.elevator_column
                    )
                if requests is None:
                    requests = {out_port: low}
                elif out_port in requests:
                    requests[out_port] |= low
                else:
                    requests[out_port] = low
            if requests is None:
                continue

            # Switch allocation and traversal: one flit per output port,
            # round-robin over the requesting input channels.
            owner = all_owners[node]
            rr = all_rr[node]
            staged_lists = all_staged[node]
            down_fifo = all_down_fifo[node]
            down_staged = all_down_staged[node]
            for out_port, candidates in requests.items():
                # Rotate a multi-request mask so channel ``pointer`` is bit
                # 0: ascending bits are then ``(idx - pointer) % num_channels``.
                if candidates & (candidates - 1):
                    pointer = rr[out_port]
                    candidates = (candidates >> pointer) | (
                        (candidates & ((1 << pointer) - 1)) << (num_channels - pointer)
                    )
                else:
                    pointer = 0
                out_base = out_port * num_vcs
                winner = -1
                while candidates:
                    low = candidates & -candidates
                    candidates ^= low
                    idx = low.bit_length() - 1 + pointer
                    if idx >= num_channels:
                        idx -= num_channels
                    flit = fifos[idx][0]
                    packet = flit.packet
                    out_key = out_base + packet.virtual_network
                    holder = owner[out_key]
                    flit_type = flit.flit_type
                    if flit_type.is_head:
                        # A head flit needs the output VC free (or already
                        # its own in the single-flit re-request case).
                        if holder is not None and holder != idx:
                            continue
                    elif holder != idx:
                        # Body/tail flits only follow their own wormhole.
                        continue
                    if out_port:  # not LOCAL: needs a link and a free slot
                        downstream = down_fifo[out_key]
                        if downstream is None or (
                            len(downstream) + len(down_staged[out_key]) >= depth
                        ):
                            continue
                    winner = idx
                    break
                if winner < 0:
                    continue
                fifo = fifos[winner]
                fifo.popleft()
                is_head = flit_type.is_head
                is_tail = flit_type.is_tail
                if is_head:
                    owner[out_key] = winner
                if is_tail:
                    owner[out_key] = None
                    route[winner] = None
                rr[out_port] = (winner + 1) % num_channels
                count[node] -= 1
                if not (fifo or staged_lists[winner]):
                    mask[node] &= ~(1 << winner)
                    if not count[node]:
                        emptied.append(node)

                # Delivery: router traversal, source-side exit cycles,
                # then ejection or the link hop into the next buffer.
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
                if not out_port:  # LOCAL: ejection
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
                downstream = down_fifo[out_key]
                staged = down_staged[out_key]
                if len(downstream) + len(staged) >= depth:
                    raise OverflowError(
                        "flit arrived at a full buffer (flow-control bug)"
                    )
                staged.append(flit)
                network_active.add(neighbor)
                count[neighbor] += 1
                mask[neighbor] |= 1 << (opp_base[out_port] + packet.virtual_network)
                active_set.add(neighbor)
                commits.append((downstream, staged))

        # Commit the buffers that received staged flits this cycle
        # (:meth:`FlitBuffer.commit`, inlined; a buffer listed twice has
        # nothing left to move the second time) and prune routers whose
        # flit counter dropped to zero.  Pruning only drops iteration work
        # -- allocation state survives in the flat arrays (see the module
        # docstring's invariants).
        if commits:
            for fifo, staged in commits:
                if staged:
                    fifo.extend(staged)
                    staged.clear()
            commits.clear()
        if emptied:
            for node in emptied:
                if not count[node]:
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
