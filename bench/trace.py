"""Outside-in layer tracer: host time per simulator layer, no edits to ``src/``.

The tracer replaces public methods of the simulator's classes at class
level with timing wrappers and puts the originals back on exit.  It must
be installed before any :class:`~repro.sim.kernel.Simulator` is built:
the fast engine caches *bound* methods in its awake lists, so a method
wrapped after the lists were built would never be seen.

A layer's self time is the duration of its calls minus the time spent in
wrapped calls they made, tracked with a stack, so the self times of all
layers plus the root span's self time add up to the root span exactly.

Two layers are not plain method wraps:

``setup``
    The interval from ``Simulator.__init__`` to that simulator's first
    ``run`` (network build, traffic attachment).  It is an open span:
    pushed when ``__init__`` starts, popped when ``run`` is entered.
``sim.kernel``
    ``Simulator.run``; its wrapper also sums the returned cycle counts.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: layer -> the "module:Class.method" targets whose host time it owns.
#: ``Simulator.run`` and ``Simulator.__init__`` are hooked separately
#: (see :meth:`Tracer.hook_simulator`).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "network.router.deliver": ("repro.network.router:PacketRouter.deliver",),
    "network.router.transfer": ("repro.network.router:PacketRouter.transfer",),
    "core.hybrid_router.transfer": (
        "repro.core.hybrid_router:HybridRouter.transfer",),
    "sdm.router.transfer": ("repro.sdm.router:SDMRouter.transfer",),
    "core.vc_gating": ("repro.network.router:PacketRouter.control",
                       "repro.core.vc_gating:VCGatingController.tick"),
    "network.interface.inject": (
        "repro.network.interface:NetworkInterface.inject",),
    "network.interface.send": (
        "repro.network.interface:NetworkInterface.send",
        "repro.core.hybrid_ni:HybridNetworkInterface.send",
        "repro.sdm.ni:SDMNetworkInterface.send"),
    "core.circuit": tuple(
        f"repro.core.circuit:ConnectionManager.{m}"
        for m in ("plan_message", "on_config", "on_setup_rejected",
                  "on_teardown_done", "teardown", "control")),
    "core.slot_sizing": ("repro.core.slot_sizing:SlotSizeController.control",),
    "traffic.synthetic": ("repro.traffic.synthetic:SyntheticSource.tick",),
    "hetero.cpu": ("repro.hetero.cpu:CPUCoreEndpoint.tick",
                   "repro.hetero.cpu:CPUCoreEndpoint.on_message",
                   "repro.hetero.phases:PhasedCPUCoreEndpoint.tick"),
    "hetero.gpu": ("repro.hetero.gpu:GPUCoreEndpoint.tick",
                   "repro.hetero.gpu:GPUCoreEndpoint.on_message",
                   "repro.hetero.phases:PhasedGPUCoreEndpoint.tick"),
    "hetero.memory": ("repro.hetero.memory:_ScheduledEndpoint.tick",
                      "repro.hetero.memory:L2BankEndpoint.on_message",
                      "repro.hetero.memory:MemoryControllerEndpoint.on_message"),
}

#: the target whose non-None returns count as planned circuit messages
CS_PLAN_TARGET = "repro.core.circuit:ConnectionManager.plan_message"


def resolve(target: str) -> Tuple[type, str]:
    """``"pkg.mod:Class.method"`` -> ``(Class, "method")``."""
    module, _, qual = target.partition(":")
    cls_name, _, attr = qual.rpartition(".")
    return getattr(importlib.import_module(module), cls_name), attr


class Tracer:
    """Per-layer self time and call counts from class-level wrappers.

    Use as a context manager: leaving it restores every wrapped class
    attribute.  ``clock`` is injectable so tests can attribute exactly.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        #: layer -> [self seconds, calls]
        self.acc: Dict[str, List[float]] = {}
        #: calls of the ``count_hits`` targets, and how many of them
        #: returned something other than None
        self.counted_calls = 0
        self.hits = 0
        #: simulated cycles returned by the hooked ``Simulator.run``
        self.cycles = 0
        #: host seconds inside ``Simulator.run`` (children included)
        self.run_s = 0.0
        #: each build's full ``__init__`` -> first ``run`` interval, seconds
        self.builds: List[float] = []
        #: ``Simulator.run`` calls that raised (a livelock, say)
        self.run_errors = 0
        self._stack: List[List[float]] = []     # frames: [start, child time]
        self._open_build: Optional[List[float]] = None
        self._saved: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def _cell(self, layer: str) -> List[float]:
        return self.acc.setdefault(layer, [0.0, 0])

    def _enter(self) -> List[float]:
        frame = [self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: List[float], cell: List[float]) -> float:
        dt = self.clock() - frame[0]
        if self._stack.pop() is not frame:
            raise RuntimeError("tracer spans closed out of order")
        cell[0] += dt - frame[1]
        cell[1] += 1
        if self._stack:
            self._stack[-1][1] += dt
        return dt

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Time the enclosed block as one call of *layer*."""
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(frame, self._cell(layer))

    def _close_build(self) -> None:
        frame, self._open_build = self._open_build, None
        if frame is not None:
            self.builds.append(self._exit(frame, self._cell("setup")))

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------
    def _replace(self, cls: type, attr: str, make) -> None:
        if attr not in cls.__dict__:
            raise AttributeError(
                f"{cls.__name__} defines no {attr!r} of its own; the layer "
                f"map names a method that moved")
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, functools.update_wrapper(make(original), original))

    def wrap(self, cls: type, attr: str, layer: str,
             count_hits: bool = False) -> None:
        """Charge calls of ``cls.attr`` to *layer*; with *count_hits*,
        also count the calls that returned something other than None."""
        cell = self._cell(layer)
        stack = self._stack
        clock = self.clock

        def make(fn):
            def wrapper(*args, **kwargs):
                frame = [clock(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - frame[0]
                    stack.pop()
                    cell[0] += dt - frame[1]
                    cell[1] += 1
                    if stack:
                        stack[-1][1] += dt
                if count_hits:
                    self.counted_calls += 1
                    self.hits += result is not None
                return result
            return wrapper

        self._replace(cls, attr, make)

    def hook_simulator(self, sim_cls: type) -> None:
        """Open a ``setup`` span per simulator build and charge
        ``run`` to ``sim.kernel``, summing the cycles it returns."""
        kernel = self._cell("sim.kernel")
        self._cell("setup")

        def make_init(fn):
            def __init__(sim, *args, **kwargs):
                self._close_build()          # a simulator never run
                self._open_build = self._enter()
                fn(sim, *args, **kwargs)
            return __init__

        def make_run(fn):
            def run(sim, *args, **kwargs):
                self._close_build()
                frame = self._enter()
                try:
                    executed = fn(sim, *args, **kwargs)
                except BaseException:
                    self.run_errors += 1
                    raise
                finally:
                    self.run_s += self._exit(frame, kernel)
                self.cycles += executed
                return executed
            return run

        self._replace(sim_cls, "__init__", make_init)
        self._replace(sim_cls, "run", make_run)

    def install(self, layers: Dict[str, Tuple[str, ...]]) -> "Tracer":
        """Wrap every target of *layers* (``{}`` hooks the simulator
        only, which costs a few calls per simulation).  On a target that
        does not resolve, everything wrapped so far is restored."""
        from repro.sim.kernel import Simulator
        try:
            self.hook_simulator(Simulator)
            for layer, targets in layers.items():
                for target in targets:
                    cls, attr = resolve(target)
                    self.wrap(cls, attr, layer,
                              count_hits=target == CS_PLAN_TARGET)
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        """Put every wrapped class attribute back, newest first."""
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    def self_s(self, layer: str) -> float:
        return self.acc.get(layer, [0.0, 0])[0]

    def calls(self, layer: str) -> int:
        return int(self.acc.get(layer, [0.0, 0])[1])
