"""Pipelined flit and credit links.

Timing model (Section II-D): a flit that traverses a router's crossbar
during cycle ``T`` spends cycle ``T+1`` on the link and is seen by the
downstream router at cycle ``T+2``.  :class:`FlitLink` therefore delivers
``hop_latency = 2`` cycles after :meth:`FlitLink.send`.  This holds for
both circuit-switched flits (which is why setup messages increment their
slot id by 2 per hop) and packet-switched flits leaving switch traversal.

Credits travel upstream on :class:`CreditLink` with a 1-cycle latency.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.network.flit import Flit

#: cycles from switch traversal to downstream arrival (ST + link)
HOP_LATENCY = 2


class FlitLink:
    """Unidirectional flit pipeline between two routers (or router<->NI)."""

    __slots__ = ("latency", "_pipe", "flits_carried", "wake_sink")

    def __init__(self, latency: int = HOP_LATENCY) -> None:
        if latency < 1:
            raise ValueError("link latency must be >= 1")
        self.latency = latency
        self._pipe: Deque[Tuple[int, Flit]] = deque()
        self.flits_carried = 0
        #: consumer SimObject woken on send (wiring, excluded from state);
        #: latency >= 1 guarantees the wake precedes the arrival
        self.wake_sink = None

    def send(self, flit: Flit, cycle: int) -> None:
        """Enqueue *flit* during *cycle*; it arrives at ``cycle+latency``."""
        self._pipe.append((cycle + self.latency, flit))
        self.flits_carried += 1
        ws = self.wake_sink
        if ws is not None and not ws._sim_awake:
            ws.sim_wake()

    def arrivals(self, cycle: int) -> List[Flit]:
        """Pop and return every flit due at *cycle*."""
        out: List[Flit] = []
        pipe = self._pipe
        while pipe and pipe[0][0] <= cycle:
            due, flit = pipe.popleft()
            assert due == cycle, "link delivery skipped a cycle"
            out.append(flit)
        return out

    @property
    def in_flight(self) -> int:
        return len(self._pipe)

    def state_dict(self) -> dict:
        return {"pipe": list(self._pipe), "flits_carried": self.flits_carried}

    def load_state_dict(self, state: dict) -> None:
        self._pipe = deque(state["pipe"])
        self.flits_carried = state["flits_carried"]


class CreditLink:
    """Upstream credit return path (1-cycle latency).

    Credits are (vc_index, count) pairs; the consumer drains them with
    :meth:`arrivals` at the start of each cycle.
    """

    __slots__ = ("latency", "_pipe", "wake_sink")

    def __init__(self, latency: int = 1) -> None:
        if latency < 1:
            raise ValueError("credit latency must be >= 1")
        self.latency = latency
        self._pipe: Deque[Tuple[int, int]] = deque()
        #: consumer SimObject woken on send (wiring, excluded from state)
        self.wake_sink = None

    def send(self, vc: int, cycle: int) -> None:
        self._pipe.append((cycle + self.latency, vc))
        ws = self.wake_sink
        if ws is not None and not ws._sim_awake:
            ws.sim_wake()

    def arrivals(self, cycle: int) -> List[int]:
        out: List[int] = []
        pipe = self._pipe
        while pipe and pipe[0][0] <= cycle:
            _, vc = pipe.popleft()
            out.append(vc)
        return out

    @property
    def in_flight(self) -> int:
        return len(self._pipe)

    def state_dict(self) -> dict:
        return {"pipe": list(self._pipe)}

    def load_state_dict(self, state: dict) -> None:
        self._pipe = deque(state["pipe"])
