"""Network assembly: routers + NIs + links for one mesh (S2-S4).

:func:`build_network` instantiates the right router/NI classes for the
configured switching mode ('packet', 'tdm', 'sdm') and wires the full
mesh with flit links (2-cycle hop latency) and credit links (1 cycle).

The :class:`Network` object is also the statistics boundary: packet and
message latencies, flit/packet throughput and the aggregated per-router
event counters that feed the energy model.  Every built network carries
one conservation/liveness :class:`~repro.sim.kernel.Watchdog`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from repro.config import NetworkConfig
from repro.network.flit import Message, MessageClass, Packet
from repro.network.interface import NetworkInterface
from repro.network.link import CreditLink, FlitLink, HOP_LATENCY
from repro.network.router import PacketRouter
from repro.network.topology import LOCAL, Mesh, NUM_PORTS, opposite_port
from repro.sim.kernel import Simulator, Watchdog
from repro.sim.stats import ConservationLedger, Counter, LatencySample

#: cycles between watchdog checks (each one audits flit conservation)
WATCHDOG_INTERVAL = 512
#: consecutive no-progress checks, with flits in flight, that raise
#: :class:`~repro.sim.kernel.LivelockError`
WATCHDOG_PATIENCE = 4


class Network:
    """A fully wired mesh network bound to a :class:`Simulator`."""

    def __init__(self, cfg: NetworkConfig, sim: Simulator,
                 routers: List[PacketRouter],
                 interfaces: List[NetworkInterface],
                 links: List[FlitLink]) -> None:
        self.cfg = cfg
        self.sim = sim
        self.mesh = Mesh(cfg.width, cfg.height)
        self.routers = routers
        self.interfaces = interfaces
        self.links = links

        # conservation ledger: one shared account across every router
        # and NI so injected == progressed + in-network at all times
        self.ledger = ConservationLedger()
        for r in routers:
            r.ledger = self.ledger
        for ni in interfaces:
            ni.ledger = self.ledger
        #: liveness/conservation watchdog, on in every simulation
        self.watchdog = sim.add(Watchdog(
            WATCHDOG_INTERVAL, WATCHDOG_PATIENCE,
            progress_fn=lambda: self.ledger.progress,
            in_flight_fn=self.in_flight_flits,
            audit_fn=self._audit_report))

        # statistics ---------------------------------------------------
        self.measuring = True
        self.pkt_latency = LatencySample()        # eject - inject, per packet
        self.msg_latency = LatencySample()        # eject - create, per message
        self.cs_pkt_latency = LatencySample()
        self.ps_pkt_latency = LatencySample()
        self.flits_ejected = 0
        self.packets_ejected = 0
        self.messages_delivered = 0
        self._measure_start_cycle = 0

        for ni in interfaces:
            ni.on_packet_ejected = self._on_packet_ejected
            ni.on_message_delivered = self._on_message_delivered

    # ------------------------------------------------------------------
    # stats plumbing
    # ------------------------------------------------------------------
    def _on_packet_ejected(self, pkt: Packet, cycle: int) -> None:
        if pkt.mclass == MessageClass.CONFIG:
            return
        if pkt.inject_cycle is not None:
            # latency feedback to the source's switching decision runs
            # regardless of the measurement window
            lat = cycle - pkt.inject_cycle
            if pkt.circuit:
                self.interfaces[pkt.src].note_cs_latency(lat)
            else:
                self.interfaces[pkt.src].note_ps_latency(lat)
        if not self.measuring:
            return
        self.flits_ejected += pkt.size
        self.packets_ejected += 1
        if pkt.inject_cycle is not None:
            lat = cycle - pkt.inject_cycle
            self.pkt_latency.add(lat)
            (self.cs_pkt_latency if pkt.circuit else self.ps_pkt_latency).add(lat)

    def _on_message_delivered(self, msg: Message, cycle: int) -> None:
        if not self.measuring:
            return
        self.messages_delivered += 1
        self.msg_latency.add(cycle - msg.create_cycle)

    def reset_stats(self, cycle: Optional[int] = None) -> None:
        """Zero all measurement state (call after warmup)."""
        if cycle is None:
            cycle = self.sim.cycle
        self._measure_start_cycle = cycle
        self.pkt_latency = LatencySample()
        self.msg_latency = LatencySample()
        self.cs_pkt_latency = LatencySample()
        self.ps_pkt_latency = LatencySample()
        self.flits_ejected = 0
        self.packets_ejected = 0
        self.messages_delivered = 0
        for r in self.routers:
            r.counters.reset()
            r.vc_power_integral.set(r.powered_vcs, cycle)
            r.vc_power_integral.integral = 0.0
            self._reset_router_extra(r, cycle)
        for ni in self.interfaces:
            ni.counters.reset()

    def _reset_router_extra(self, router, cycle: int) -> None:
        """Hook for subclasses (slot-table integrals etc.)."""

    @property
    def measured_cycles(self) -> int:
        return self.sim.cycle - self._measure_start_cycle

    # ------------------------------------------------------------------
    # snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Full network state: stats, the shared ledger, and every
        router/NI/link sub-state (subclasses extend this)."""
        return {
            "measuring": self.measuring,
            "measure_start_cycle": self._measure_start_cycle,
            "flits_ejected": self.flits_ejected,
            "packets_ejected": self.packets_ejected,
            "messages_delivered": self.messages_delivered,
            "pkt_latency": self.pkt_latency,
            "msg_latency": self.msg_latency,
            "cs_pkt_latency": self.cs_pkt_latency,
            "ps_pkt_latency": self.ps_pkt_latency,
            "ledger": self.ledger,
            "routers": [r.state_dict() for r in self.routers],
            "interfaces": [ni.state_dict() for ni in self.interfaces],
            "links": [link.state_dict() for link in self.links],
            "watchdog": self.watchdog.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        self.measuring = state["measuring"]
        self._measure_start_cycle = state["measure_start_cycle"]
        self.flits_ejected = state["flits_ejected"]
        self.packets_ejected = state["packets_ejected"]
        self.messages_delivered = state["messages_delivered"]
        self.pkt_latency = state["pkt_latency"]
        self.msg_latency = state["msg_latency"]
        self.cs_pkt_latency = state["cs_pkt_latency"]
        self.ps_pkt_latency = state["ps_pkt_latency"]
        self.ledger = state["ledger"]
        for r, sub in zip(self.routers, state["routers"], strict=True):
            r.load_state_dict(sub)
            r.ledger = self.ledger
        for ni, sub in zip(self.interfaces, state["interfaces"], strict=True):
            ni.load_state_dict(sub)
            ni.ledger = self.ledger
        for link, sub in zip(self.links, state["links"], strict=True):
            link.load_state_dict(sub)
        self.watchdog.load_state_dict(state["watchdog"])

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    def aggregate_counters(self) -> Counter:
        total = Counter()
        for r in self.routers:
            total.merge(r.counters)
        for ni in self.interfaces:
            total.merge(ni.counters)
        return total

    def throughput_flits_per_node_cycle(self) -> float:
        cycles = max(1, self.measured_cycles)
        return self.flits_ejected / (cycles * self.mesh.num_nodes)

    def accepted_load(self) -> float:
        """Accepted traffic in offered-load units (packet-switched-flit
        equivalents per node per cycle).

        Circuit-switched packets carry a cache line in 4 flits instead of
        5, so raw flit throughput under-counts delivered payload; this
        metric weighs every delivered message by its packet-switched size
        and is the y-axis-consistent measure for load-throughput curves.
        """
        cycles = max(1, self.measured_cycles)
        eq_flits = self.messages_delivered * self.cfg.packet_size("ps_data")
        return eq_flits / (cycles * self.mesh.num_nodes)

    def in_flight_flits(self) -> int:
        n = sum(r.occupancy() for r in self.routers)
        n += sum(link.in_flight for link in self.links)
        n += sum(ni.pending_flits for ni in self.interfaces)
        return n

    # ------------------------------------------------------------------
    # conservation audit
    # ------------------------------------------------------------------
    def in_network_flits(self) -> int:
        """Flits inside the fabric proper (routers + links).

        NI-side queues are excluded: the ledger counts a flit as injected
        only when it enters its injection link.
        """
        n = sum(r.occupancy() for r in self.routers)
        n += sum(link.in_flight for link in self.links)
        return n

    def conservation_imbalance(self) -> int:
        """injected - (ejected + consumed) - in_network.

        Zero at every phase boundary in a correct simulation; nonzero
        means flits were silently created or destroyed.
        """
        return self.ledger.imbalance(self.in_network_flits())

    def audit_conservation(self) -> Optional[str]:
        """Return a human-readable violation description, or ``None``."""
        imb = self.conservation_imbalance()
        if imb == 0:
            return None
        return (f"flit conservation violated: imbalance={imb} "
                f"({self.ledger.as_dict()}, "
                f"in_network={self.in_network_flits()})")

    def _audit_report(self) -> Optional[Dict]:
        """The watchdog's audit: ``None``, or the violation details."""
        detail = self.audit_conservation()
        if detail is None:
            return None
        return {"imbalance": self.conservation_imbalance(), "detail": detail}

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def ni(self, node: int) -> NetworkInterface:
        return self.interfaces[node]

    def router(self, node: int) -> PacketRouter:
        return self.routers[node]

    def attach_endpoint(self, node: int, endpoint) -> None:
        ni = self.interfaces[node]
        ni.endpoint = endpoint
        ni.sim_wake()   # an endpoint must be ticked every cycle
        endpoint.attach(ni)


def _wire(cfg: NetworkConfig, sim: Simulator,
          routers: List[PacketRouter],
          interfaces: List[NetworkInterface]) -> List[FlitLink]:
    """Create and connect all flit/credit links of the mesh."""
    mesh = Mesh(cfg.width, cfg.height)
    links: List[FlitLink] = []
    depth = cfg.router.vc_depth
    cdepth = cfg.router.config_vc_depth

    for node in range(mesh.num_nodes):
        r = routers[node]
        ni = interfaces[node]
        # fabric components draw from the dedicated network stream so a
        # trace replay (no endpoint draws) reproduces slot choices
        r.rng = sim.net_rng
        ni.sim = sim
        # NI <-> router local port
        inj = FlitLink(latency=1)
        ej = FlitLink(latency=HOP_LATENCY)
        cr = CreditLink(latency=1)
        inj.wake_sink = r    # NI -> router flits wake the router
        ej.wake_sink = ni    # router -> NI ejections wake the NI
        cr.wake_sink = ni    # router -> NI credits wake the NI
        links.extend([inj, ej])
        ni.inject_link = inj
        ni.eject_link = ej
        ni.credit_in = cr
        ni.router = r
        r.connect_input(LOCAL, inj, cr)
        r.connect_output(LOCAL, ej, None, None, depth, cdepth)
        # inter-router links
        for port in mesh.ports(node):
            nbr = mesh.neighbor(node, port)
            flink = FlitLink(latency=HOP_LATENCY)
            clink = CreditLink(latency=1)
            flink.wake_sink = routers[nbr]   # flits wake the downstream
            clink.wake_sink = r              # credits wake the upstream
            links.append(flink)
            r.connect_output(port, flink, clink, routers[nbr], depth, cdepth)
            routers[nbr].connect_input(opposite_port(port), flink, clink)
    return links


def build_network(cfg: NetworkConfig, sim: Simulator) -> Network:
    """Build the network matching ``cfg.switching`` and register it."""
    if cfg.switching == "packet":
        net = _build(cfg, sim, PacketRouter, NetworkInterface, Network)
    elif cfg.switching == "tdm":
        # local import to avoid a core <-> network import cycle
        from repro.core.hybrid_network import build_hybrid_network
        net = build_hybrid_network(cfg, sim)
    elif cfg.switching == "sdm":
        from repro.sdm.network import build_sdm_network
        net = build_sdm_network(cfg, sim)
    else:
        raise ValueError(f"unknown switching mode {cfg.switching!r}")
    return net


def _build(cfg: NetworkConfig, sim: Simulator,
           router_cls: Type[PacketRouter],
           ni_cls: Type[NetworkInterface],
           net_cls: Type[Network], **net_kwargs) -> Network:
    mesh = Mesh(cfg.width, cfg.height)
    routers = [router_cls(n, cfg, mesh) for n in range(mesh.num_nodes)]
    interfaces = [ni_cls(n, cfg) for n in range(mesh.num_nodes)]
    links = _wire(cfg, sim, routers, interfaces)
    net = net_cls(cfg, sim, routers, interfaces, links, **net_kwargs)
    # VC power gating controllers
    if cfg.vc_gating.enabled:
        from repro.core.vc_gating import VCGatingController
        for r in routers:
            r.gating = VCGatingController(r, cfg.vc_gating)
    for r in routers:
        sim.add(r)
    for ni in interfaces:
        sim.add(ni)
    return net
