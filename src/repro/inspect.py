"""Human-readable inspection of live simulation state.

Debugging a TDM fabric means reading slot tables; these helpers render
them (plus buffer-occupancy heatmaps and circuit listings) as text.
Used by the CLI's ``--inspect`` mode and handy from a REPL.
"""

from __future__ import annotations

from typing import List

from repro.network.network import Network
from repro.network.topology import NUM_PORTS, PORT_NAMES


def slot_table_dump(net: Network, node: int, max_slots: int = 32) -> str:
    """Render one router's slot tables (valid/outport per input port)."""
    router = net.router(node)
    if router.slot_state is None:
        return f"router {node}: no slot tables (packet-switched router)"
    active = net.clock.active
    shown = min(active, max_slots)
    lines = [f"router {node}: slot tables "
             f"({active} active entries, showing {shown})"]
    header = "in-port  " + " ".join(f"s{j:<3d}" for j in range(shown))
    lines.append(header)
    for inport in range(NUM_PORTS):
        table = router.slot_state.in_tables[inport]
        cells = []
        for j in range(shown):
            if table.valid[j]:
                cells.append(f"{PORT_NAMES[table.outport[j]][0]}:{table.conn[j] % 100:<2d}")
            else:
                cells.append(".   ")
        lines.append(f"{PORT_NAMES[inport]:8s} " + " ".join(cells))
    reserved = router.slot_state.reserved_entries()
    lines.append(f"reserved entries: {reserved} "
                 f"({100 * reserved / (NUM_PORTS * active):.0f}% of tables)")
    return "\n".join(lines)


def occupancy_heatmap(net: Network) -> str:
    """Buffer-occupancy heatmap of the mesh (one digit per router)."""
    mesh = net.mesh
    lines = ["buffer occupancy (flits buffered per router):"]
    for y in reversed(range(mesh.height)):
        row = []
        for x in range(mesh.width):
            occ = net.router(mesh.node_at(x, y)).occupancy()
            row.append(f"{min(occ, 99):2d}")
        lines.append("  " + " ".join(row))
    return "\n".join(lines)


def vc_power_map(net: Network) -> str:
    """Powered-VC count per router (VC power gating state)."""
    mesh = net.mesh
    lines = ["powered VCs per router:"]
    for y in reversed(range(mesh.height)):
        row = [str(net.router(mesh.node_at(x, y)).powered_vcs)
               for x in range(mesh.width)]
        lines.append("  " + " ".join(row))
    return "\n".join(lines)


def circuit_listing(net: Network) -> str:
    """All registered circuit-switched connections in the network."""
    if not hasattr(net, "managers"):
        return "no circuit control plane (packet-switched network)"
    lines: List[str] = ["circuit-switched connections:"]
    count = 0
    for mgr in net.managers:
        for conn in mgr.connections.values():
            lines.append(
                f"  #{conn.conn_id:<5d} {conn.src:>3d} -> {conn.dst:<3d} "
                f"slot {conn.slot0:<3d} x{conn.duration} "
                f"{conn.state.name:8s} uses={conn.uses}")
            count += 1
    if count == 0:
        lines.append("  (none)")
    lines.append(f"total: {count}")
    return "\n".join(lines)


def network_summary(net: Network) -> str:
    """One-paragraph status of a network mid-simulation."""
    lines = [
        f"{net.cfg.switching.upper()} network, "
        f"{net.mesh.width}x{net.mesh.height} mesh, cycle {net.sim.cycle}",
        f"messages delivered: {net.messages_delivered}, "
        f"flits in flight: {net.in_flight_flits()}",
    ]
    if net.pkt_latency.count:
        lines.append(f"avg packet latency: {net.pkt_latency.mean:.1f} "
                     f"(p99 {net.pkt_latency.percentile(99):.0f})")
    if hasattr(net, "cs_flit_fraction"):
        lines.append(f"circuit-switched flit fraction: "
                     f"{net.cs_flit_fraction():.3f}")
    if hasattr(net, "clock"):
        lines.append(f"TDM wheel: {net.clock.active} active slots "
                     f"(generation {net.clock.generation})")
    return "\n".join(lines)
