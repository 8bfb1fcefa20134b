"""Routing functions.

* :func:`xy_outport` — dimension-ordered X-Y routing, used by all data and
  control packets (Table I).
* :func:`oe_candidate_outports` — minimal adaptive routing under the
  odd-even turn model (Chiu, 2000), used by configuration packets.  The
  odd-even restrictions keep the adaptive channel-dependency graph
  acyclic, and configuration packets additionally travel on a dedicated
  escape VC so they can never deadlock against X-Y data traffic.

Both functions work on node ids of a :class:`~repro.network.topology.Mesh`.
"""

from __future__ import annotations

from typing import List

from repro.network.topology import EAST, LOCAL, Mesh, NORTH, SOUTH, WEST


def hops(mesh: Mesh, src: int, dst: int) -> int:
    """Manhattan hop count between two nodes."""
    return mesh.hops(src, dst)


def xy_outport(mesh: Mesh, cur: int, dst: int) -> int:
    """Dimension-ordered routing: exhaust X offset, then Y."""
    cx, cy = mesh.coords(cur)
    dx, dy = mesh.coords(dst)
    if cx < dx:
        return EAST
    if cx > dx:
        return WEST
    if cy < dy:
        return NORTH
    if cy > dy:
        return SOUTH
    return LOCAL


def oe_candidate_outports(mesh: Mesh, cur: int, src: int, dst: int) -> List[int]:
    """Minimal adaptive candidates under the odd-even turn model.

    Implements the ROUTE function of Chiu's odd-even turn model for
    minimal routing.  Returns the non-empty list of productive output
    ports a packet from *src* may take at *cur* towards *dst*.

    Odd-even rules (columns are x coordinates):

    * Rule 1: no east-to-north turn at a node in an even column; no
      north-to-west turn at a node in an odd column.
    * Rule 2: no east-to-south turn at a node in an even column; no
      south-to-west turn at a node in an odd column.

    The constructive form used here ("avail" set) is the standard one
    from the paper and satisfies both rules for minimal paths.
    """
    if cur == dst:
        return [LOCAL]
    cx, cy = mesh.coords(cur)
    sx, _sy = mesh.coords(src)
    dx, dy = mesh.coords(dst)
    e0 = dx - cx  # remaining hops east (negative: west)
    e1 = dy - cy  # remaining hops north (negative: south)

    avail: List[int] = []
    if e0 == 0:
        # destination in the same column: ride the Y dimension
        avail.append(NORTH if e1 > 0 else SOUTH)
        return avail

    if e0 > 0:  # destination is to the east
        if e1 == 0:
            avail.append(EAST)
        else:
            # turning away from eastbound (EN/ES) is only legal when the
            # current column is odd, or the packet has not yet turned
            # east (still in the source column)
            if cx % 2 == 1 or cx == sx:
                avail.append(NORTH if e1 > 0 else SOUTH)
            # continuing east is legal unless the destination column is
            # even and exactly one hop away (the final NW/SW turn there
            # would be illegal in an even column's neighbour context)
            if dx % 2 == 1 or e0 != 1:
                avail.append(EAST)
    else:  # destination is to the west
        avail.append(WEST)
        # NW/SW turns are prohibited in odd columns, so vertical moves
        # while heading west are only taken in even columns
        if cx % 2 == 0 and e1 != 0:
            avail.append(NORTH if e1 > 0 else SOUTH)

    assert avail, "odd-even routing must always offer a productive port"
    return avail
