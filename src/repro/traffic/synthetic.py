"""Bernoulli synthetic traffic sources (Section IV).

Injection rate is expressed in flits/node/cycle of *offered* load;
message generation probability is the rate divided by the
packet-switched data packet size, so all schemes see the same offered
message stream (circuit switching then carries the same payload in
fewer flits, which is part of the technique's advantage).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.config import NetworkConfig
from repro.network.flit import Message, MessageClass
from repro.network.interface import Endpoint
from repro.network.network import Network
from repro.traffic.patterns import TrafficPattern


class SyntheticSource(Endpoint):
    """Per-node Bernoulli message generator following a traffic pattern."""

    def __init__(self, node: int, cfg: NetworkConfig,
                 pattern: TrafficPattern,
                 injection_rate: float,
                 rng: np.random.Generator,
                 stop_cycle: Optional[int] = None) -> None:
        super().__init__()
        if injection_rate < 0:
            raise ValueError("injection rate must be >= 0")
        self.node = node
        self.cfg = cfg
        self.pattern = pattern
        self.injection_rate = injection_rate
        self.msg_prob = injection_rate / cfg.packet_size("ps_data")
        self.rng = rng
        self.stop_cycle = stop_cycle
        self.messages_generated = 0
        self.messages_received = 0

    def quiescent(self, cycle: int) -> bool:
        # mirrors tick() exactly: a stopped or zero-rate source returns
        # before touching the RNG, now and at every later cycle (rates
        # are only ever lowered at runtime, never raised)
        return (self.msg_prob <= 0
                or (self.stop_cycle is not None and cycle >= self.stop_cycle))

    def tick(self, cycle: int) -> None:
        if self.stop_cycle is not None and cycle >= self.stop_cycle:
            return
        if self.msg_prob <= 0 or self.rng.random() >= self.msg_prob:
            return
        dst = self.pattern(self.node)
        if dst is None:
            return
        msg = Message(src=self.node, dst=dst, mclass=MessageClass.DATA,
                      size_flits=self.cfg.packet_size("ps_data"),
                      create_cycle=cycle)
        self.ni.send(msg)
        self.messages_generated += 1

    def on_message(self, msg: Message, cycle: int) -> None:
        self.messages_received += 1

    def state_dict(self) -> dict:
        # msg_prob is mutable at runtime (drain experiments zero it to
        # stop offering load), so it is state, not derived configuration
        return {"injection_rate": self.injection_rate,
                "msg_prob": self.msg_prob,
                "stop_cycle": self.stop_cycle,
                "messages_generated": self.messages_generated,
                "messages_received": self.messages_received}

    def load_state_dict(self, state: dict) -> None:
        self.injection_rate = state["injection_rate"]
        self.msg_prob = state["msg_prob"]
        self.stop_cycle = state["stop_cycle"]
        self.messages_generated = state["messages_generated"]
        self.messages_received = state["messages_received"]


def attach_synthetic_sources(net: Network, pattern: TrafficPattern,
                             injection_rate: float,
                             rng: np.random.Generator,
                             stop_cycle: Optional[int] = None,
                             ) -> List[SyntheticSource]:
    """Attach one :class:`SyntheticSource` to every node of *net*."""
    sources = []
    for node in range(net.mesh.num_nodes):
        src = SyntheticSource(node, net.cfg, pattern, injection_rate, rng,
                              stop_cycle=stop_cycle)
        net.attach_endpoint(node, src)
        sources.append(src)
    return sources
