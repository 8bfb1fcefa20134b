"""Network energy accounting.

:func:`compute_energy` turns a network's event counters and power-gating
integrals into an :class:`EnergyReport` with the same component
categories as Figure 9: input buffers, circuit-switching (CS)
components, crossbars, VC/SW arbiters, clock, and links — each split
into dynamic and static energy.

Power gating is respected through time-weighted integrals: VC leakage is
paid per *powered* VC-cycle (aggressive VC power gating, Section III-B)
and slot-table leakage per *active* entry-cycle (dynamic time-division
granularity, Section II-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.energy.params import EnergyParams
from repro.network.topology import NUM_PORTS

COMPONENTS = ("buffer", "cs", "xbar", "arbiter", "clock", "link")


@dataclass
class EnergyReport:
    """Per-component dynamic/static energy (picojoules)."""

    dynamic: Dict[str, float] = field(default_factory=dict)
    static: Dict[str, float] = field(default_factory=dict)
    cycles: int = 0

    @property
    def dynamic_total(self) -> float:
        return sum(self.dynamic.values())

    @property
    def static_total(self) -> float:
        return sum(self.static.values())

    @property
    def total(self) -> float:
        return self.dynamic_total + self.static_total

    def dynamic_fraction(self, comp: str) -> float:
        if comp not in COMPONENTS:
            raise KeyError(f"unknown energy component {comp!r}; "
                           f"expected one of {COMPONENTS}")
        t = self.dynamic_total
        return self.dynamic.get(comp, 0.0) / t if t else 0.0

    def static_fraction(self, comp: str) -> float:
        if comp not in COMPONENTS:
            raise KeyError(f"unknown energy component {comp!r}; "
                           f"expected one of {COMPONENTS}")
        t = self.static_total
        return self.static.get(comp, 0.0) / t if t else 0.0

    def as_rows(self):
        """(component, dynamic_pj, static_pj) rows for reporting."""
        return [(c, self.dynamic.get(c, 0.0), self.static.get(c, 0.0))
                for c in COMPONENTS]


def _directed_inter_router_links(net) -> int:
    """Count of *directed* inter-router channels (one per port, so each
    physical bidirectional link contributes two).

    This is intentional, not double counting: the builder wires one
    unidirectional :class:`~repro.network.link.FlitLink` per direction,
    each with its own wires and drivers, and link leakage is charged per
    such channel.  A 4x4 mesh has 24 physical links and therefore 48
    directed channels (pinned by the energy regression tests).
    """
    mesh = net.mesh
    return sum(1 for node in range(mesh.num_nodes)
               for _ in mesh.ports(node))


def compute_energy(net, params: EnergyParams | None = None) -> EnergyReport:
    """Aggregate *net*'s measurement-window activity into energy."""
    p = params or EnergyParams.default_45nm()
    cfg = net.cfg
    now = net.sim.cycle
    cycles = max(1, net.measured_cycles)
    nr = len(net.routers)
    c = net.aggregate_counters()

    # width factor: SDM datapath events act on narrow plane flits
    wf = 1.0 / cfg.sdm.planes if cfg.switching == "sdm" else 1.0

    dyn: Dict[str, float] = {k: 0.0 for k in COMPONENTS}
    dyn["buffer"] = (c["buffer_write"] * p.buffer_write_pj
                     + c["buffer_read"] * p.buffer_read_pj) * wf
    # every packet-switched buffer read is one crossbar traversal
    dyn["xbar"] = (c["buffer_read"] + c["cs_xbar"]) * p.xbar_pj * wf
    dyn["arbiter"] = (c["vc_arb"] * p.vc_arb_pj
                      + c["sw_arb"] * p.sw_arb_pj)
    dyn["link"] = (c["link"] * p.link_pj * wf
                   + c["link_narrow"] * p.link_pj / cfg.sdm.planes)
    dyn["cs"] = (c["slot_read"] * p.slot_read_pj
                 + c["slot_write"] * p.slot_write_pj
                 + c["cs_latch"] * p.cs_latch_pj * wf)

    dlt_events = 0
    for r in net.routers:
        if getattr(r, "dlt", None) is not None:
            dlt_events += r.dlt.lookups + r.dlt.updates
    dyn["cs"] += dlt_events * p.dlt_pj

    # clock: base tree + per-powered-VC buffer clocking
    vc_cycles = 0.0  # powered VCs (per port) integrated over time
    for r in net.routers:
        vc_cycles += r.vc_power_integral.finalize(now)
    dyn["clock"] = (p.clock_base_pj * cycles * nr
                    + p.clock_per_vc_pj * vc_cycles * NUM_PORTS)

    sta: Dict[str, float] = {k: 0.0 for k in COMPONENTS}
    sta["buffer"] = p.leak_vc_pj * vc_cycles * NUM_PORTS
    sta["xbar"] = p.leak_xbar_pj * cycles * nr
    sta["arbiter"] = p.leak_arb_pj * cycles * nr
    sta["clock"] = p.leak_clock_pj * cycles * nr
    sta["link"] = p.leak_link_pj * cycles * _directed_inter_router_links(net)

    if cfg.switching == "tdm":
        ctl = net.size_controller
        entry_cycles = ctl.entries_integral.finalize(now) if ctl is not None \
            else cfg.slot_table.size * cycles
        sta["cs"] = (p.leak_slot_entry_pj * entry_cycles * NUM_PORTS * nr
                     + p.leak_cs_latch_pj * cycles * nr)
        dlt_entries = sum(getattr(r, "dlt", None) is not None
                          and r.dlt.capacity or 0 for r in net.routers)
        sta["cs"] += p.leak_dlt_entry_pj * dlt_entries * cycles
    elif cfg.switching == "sdm":
        # per-plane routing registers + CS latches
        sta["cs"] = (p.leak_slot_entry_pj * cfg.sdm.planes * NUM_PORTS
                     * cycles * nr
                     + p.leak_cs_latch_pj * cycles * nr)

    return EnergyReport(dynamic=dyn, static=sta, cycles=cycles)


def energy_saving(baseline: EnergyReport, candidate: EnergyReport) -> float:
    """Fractional network energy saving vs *baseline* (positive = saves)."""
    if baseline.total <= 0:
        return 0.0
    return 1.0 - candidate.total / baseline.total
