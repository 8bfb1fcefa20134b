"""Clocked simulation kernel.

The NoC models in this package are *cycle driven*: every component exposes
phase methods that the :class:`Simulator` invokes in a fixed global order
each cycle.  The phase split mirrors the structural timing of a synchronous
router (link delivery happens before switch traversal, which happens before
controller bookkeeping) and makes the simulation deterministic regardless
of component registration order within a phase tier.

Phases per cycle (in order):

``deliver``   link/credit pipelines hand flits and credits to consumers
``transfer``  routers run the circuit-switched pass then the packet pipeline
``inject``    network interfaces inject/eject, endpoints generate traffic
``control``   slow controllers: VC power gating, slot-table sizing,
              connection management, statistics sampling

All randomness must come from :attr:`Simulator.rng` (a seeded NumPy
``Generator``) so runs are exactly reproducible.

Engines
-------
The simulator ships two schedulers that are *behaviourally identical*
(verified by the differential-equivalence harness in
:mod:`repro.harness.verify`):

``legacy``
    Every registered object runs every phase it overrides, every cycle.
    The reference oracle the fast engine is checked against.

``fast`` (default)
    Activity-tracked: a component whose :meth:`SimObject.sim_idle`
    predicate holds at the end of a cycle is put to sleep and skipped
    until an event wakes it — a flit or credit entering one of its
    links (:class:`~repro.network.link.FlitLink` pokes its
    ``wake_sink``), a message enqueued at an NI, a circuit injection
    scheduled on a router, an endpoint attachment, or a snapshot
    restore.  Sleep is only entered after the component has executed a
    provably no-op cycle, so skipped phases never differ from the
    no-ops the legacy engine would have run, and ``state_hash`` stays
    identical cycle for cycle.

    The scheduler keeps *awake lists*: per-phase lists holding only the
    components that must run (everything that cannot sleep, plus the
    currently-awake sleepables).  The per-cycle loop therefore never
    touches sleeping components at all — no per-object ``_sim_awake``
    check on the hot path.  Wakes (:meth:`SimObject.sim_wake`) mark the
    component for (re-)insertion and set a kernel flag; the lists are
    rebuilt lazily, in canonical registration order, at the next cycle
    boundary.  A component woken mid-cycle thus runs its phases again
    starting with the *next* cycle — which is hash-identical to the old
    behaviour, because the phases it would have run in the wake cycle
    are provably no-ops: every wake event is a *future* delivery (link
    latencies >= 1, circuit injections are slot-aligned ahead of time)
    or targets a component that is still awake (the CS-callback paths
    hold their NI awake through ``_cs_outstanding``).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.trace import NULL_RECORDER

#: Canonical phase names in execution order.
PHASES = ("deliver", "transfer", "inject", "control")


class UnknownEngineError(ValueError):
    """An engine name that is not in :attr:`Simulator.ENGINES` — a
    configuration error (bad flag or ``REPRO_ENGINE`` value)."""


def check_engine(name: str, source: str = "engine") -> str:
    """Return *name* if it is a known engine, else raise
    :class:`UnknownEngineError` naming the valid ones; *source* says
    where the name came from in the message."""
    if name not in Simulator.ENGINES:
        raise UnknownEngineError(
            f"unknown {source} {name!r}; valid engines: "
            f"{', '.join(Simulator.ENGINES)}")
    return name


def default_engine() -> str:
    """The engine used when a caller does not choose one explicitly.

    ``REPRO_ENGINE`` overrides the built-in default ("fast"), so whole
    harness entry points (golden-fixture regeneration, sweeps, the
    hetero system) can be re-run under another engine without threading
    a parameter through every call site.
    """
    env = os.environ.get("REPRO_ENGINE", "").strip()
    if not env:
        return "fast"
    return check_engine(env, "REPRO_ENGINE value")


class LivelockError(RuntimeError):
    """Raised by :class:`Watchdog` when the simulation stops resolving
    flits while work is still in flight (a livelock or deadlock), instead
    of letting the run spin silently to its cycle budget."""

    def __init__(self, cycle: int, in_flight: int, stalled_cycles: int,
                 diagnosis: Optional[Dict] = None) -> None:
        self.cycle = cycle
        self.in_flight = in_flight
        self.stalled_cycles = stalled_cycles
        self.diagnosis = diagnosis or {}
        super().__init__(
            f"no forward progress for {stalled_cycles} cycles at cycle "
            f"{cycle} with {in_flight} flits in flight: {self.diagnosis}")


class SimObject:
    """Base class for objects that participate in the clocked phases.

    Subclasses override any subset of :meth:`deliver`, :meth:`transfer`,
    :meth:`inject` and :meth:`control`.  The default implementations are
    no-ops, so components only pay for the phases they use (the kernel
    skips methods that are not overridden).

    Snapshot protocol
    -----------------
    :meth:`state_dict` returns every *mutable* simulation attribute of
    the object; :meth:`load_state_dict` restores them onto an
    identically-constructed instance.  Wiring (links, callbacks, shared
    component references) is never part of the state: a restore target
    is rebuilt through the normal construction path first, then loaded.
    The default implementation is driven by the :attr:`_state_attrs`
    class attribute; components with nested or shared state override the
    method pair instead.  Returned values may be live references — the
    checkpoint layer (:mod:`repro.sim.checkpoint`) freezes the whole
    tree in a single pickling pass, which also preserves object sharing
    between components (e.g. a flit sitting in a link pipe while its
    packet is tracked by the source NI).
    """

    #: names of mutable attributes captured by the default state_dict
    _state_attrs: Tuple[str, ...] = ()

    #: classes opting into activity tracking set this True and provide a
    #: sound :meth:`sim_idle`; everything else runs every cycle
    _sim_can_sleep: bool = False

    #: scheduler metadata — NEVER part of ``state_dict`` (both engines
    #: must hash identically); set by :meth:`Simulator.add`
    _sim_awake: bool = True

    #: True while the object is present in (or pending insertion into)
    #: the fast engine's awake lists — scheduler metadata, never state
    _sim_in_lists: bool = False

    #: owning :class:`Simulator` (wiring, set by :meth:`Simulator.add`)
    _sim_kernel: Optional["Simulator"] = None

    def sim_wake(self) -> None:
        """Wake this object: it runs its phases again starting with the
        next cycle.  Idempotent and cheap when already awake; hot call
        sites guard with ``if not obj._sim_awake: obj.sim_wake()`` to
        skip even the method call."""
        self._sim_awake = True
        if not self._sim_in_lists:
            self._sim_in_lists = True
            kernel = self._sim_kernel
            if kernel is not None:
                kernel._wake_pending = True

    def sim_idle(self, cycle: int) -> bool:
        """True when every phase of this object would be a no-op at
        *cycle + 1* and stay a no-op until an external wake event.

        The contract (checked by the differential harness): while the
        object sleeps, the legacy engine running its phases must mutate
        *no* state captured by :meth:`state_dict` and draw nothing from
        the simulator RNG.
        """
        return False

    def deliver(self, cycle: int) -> None:  # pragma: no cover - trivial
        pass

    def transfer(self, cycle: int) -> None:  # pragma: no cover - trivial
        pass

    def inject(self, cycle: int) -> None:  # pragma: no cover - trivial
        pass

    def control(self, cycle: int) -> None:  # pragma: no cover - trivial
        pass

    def state_dict(self) -> Dict:
        return {name: getattr(self, name) for name in self._state_attrs}

    def load_state_dict(self, state: Dict) -> None:
        for name in self._state_attrs:
            setattr(self, name, state[name])


class Watchdog(SimObject):
    """Periodic liveness + conservation auditor (``control`` phase).

    ``progress_fn`` must be monotonic (e.g.
    :attr:`~repro.sim.stats.ConservationLedger.progress`); ``in_flight_fn``
    reports flits currently inside the network.  Every ``interval``
    cycles the watchdog (a) runs the optional ``audit_fn`` and records a
    violation when it returns a non-None report, and (b) raises
    :class:`LivelockError` after ``patience`` consecutive checks without
    progress while work is in flight.
    """

    _state_attrs = ("_last_progress", "_stalled_checks", "checks",
                    "audit_violations", "last_violation")

    def __init__(self, interval: int, patience: int,
                 progress_fn: Callable[[], int],
                 in_flight_fn: Callable[[], int],
                 audit_fn: Optional[Callable[[], Optional[Dict]]] = None,
                 ) -> None:
        if interval < 1 or patience < 1:
            raise ValueError("interval and patience must be >= 1")
        self.interval = interval
        self.patience = patience
        self.progress_fn = progress_fn
        self.in_flight_fn = in_flight_fn
        self.audit_fn = audit_fn
        self._last_progress = -1
        self._stalled_checks = 0
        self.checks = 0
        self.audit_violations = 0
        self.last_violation: Optional[Dict] = None
        #: trace recorder (observability wiring, never snapshot state)
        self.obs = NULL_RECORDER

    def control(self, cycle: int) -> None:
        if cycle == 0 or cycle % self.interval:
            return
        self.checks += 1
        if self.audit_fn is not None:
            report = self.audit_fn()
            if report is not None:
                self.audit_violations += 1
                self.last_violation = dict(report, cycle=cycle)
                if self.obs.enabled:
                    self.obs.audit_violation(
                        cycle, "sim",
                        int(report.get("imbalance", 0)))
        progress = self.progress_fn()
        in_flight = self.in_flight_fn()
        if in_flight > 0 and progress == self._last_progress:
            self._stalled_checks += 1
            if self._stalled_checks >= self.patience:
                stalled = self._stalled_checks * self.interval
                if self.obs.enabled:
                    self.obs.livelock(cycle, "sim", in_flight, stalled)
                raise LivelockError(
                    cycle, in_flight, stalled,
                    diagnosis={"progress": progress,
                               "audit_violations": self.audit_violations})
        else:
            self._stalled_checks = 0
        self._last_progress = progress


def _overrides(obj: SimObject, name: str) -> bool:
    """True when *obj* provides its own implementation of phase *name*."""
    return getattr(type(obj), name) is not getattr(SimObject, name)


class Simulator:
    """Drives registered :class:`SimObject` instances cycle by cycle.

    Parameters
    ----------
    seed:
        Seed for the simulation-global random generator.  Every stochastic
        decision in the models (traffic destinations, injection coin flips,
        adaptive-route tie breaks, ...) draws from :attr:`rng`.
    engine:
        ``"fast"`` (default) skips sleeping components via the
        activity-tracked scheduler; ``"legacy"`` runs every phase of
        every object each cycle.  Both produce identical ``state_hash``
        trajectories (see the module docstring).
    """

    ENGINES = ("fast", "legacy")

    def __init__(self, seed: int = 0, engine: str = "fast") -> None:
        check_engine(engine)
        self.cycle: int = 0
        self.rng: np.random.Generator = np.random.default_rng(seed)
        #: fabric-side stream (slot probes, arbitration tie breaks).
        #: Separate from :attr:`rng` so that the network's randomness is
        #: a function of the seed alone, not of how many draws the
        #: workload endpoints made — replaying a recorded trace then
        #: reproduces the original run's slot choices exactly.
        self.net_rng: np.random.Generator = np.random.default_rng(
            np.random.SeedSequence(seed).spawn(1)[0])
        self.engine = engine
        #: trace recorder shared by instrumented components; replaced by
        #: :meth:`repro.obs.attach.Observability.attach` on traced runs.
        #: Never part of :meth:`state_dict` (hashes must not see it).
        self.obs = NULL_RECORDER
        self._phase_lists: dict[str, List[SimObject]] = {p: [] for p in PHASES}
        self._objects: List[SimObject] = []
        self._end_hooks: List[Callable[[int], None]] = []
        self._sleepables: List[SimObject] = []
        self._step = self._step_fast if engine == "fast" else self._step_legacy
        # fast-engine awake lists: per-phase lists holding only the
        # objects that must run this cycle (see the module docstring);
        # rebuilt lazily when _wake_pending is set or a sleep occurs
        self._wake_pending = False
        # the phase lists hold *bound methods* (one attribute lookup per
        # object per cycle saved); the sleepables list holds the objects
        # themselves (the sleep loop needs their flags)
        self._awake_deliver: List[Callable[[int], None]] = []
        self._awake_transfer: List[Callable[[int], None]] = []
        self._awake_inject: List[Callable[[int], None]] = []
        self._awake_control: List[Callable[[int], None]] = []
        self._awake_sleepables: List[SimObject] = []

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add(self, obj: SimObject) -> SimObject:
        """Register *obj* for every phase it overrides. Returns *obj*."""
        self._objects.append(obj)
        obj._sim_awake = True
        obj._sim_in_lists = True
        obj._sim_kernel = self
        for phase in PHASES:
            if _overrides(obj, phase):
                self._phase_lists[phase].append(obj)
        if obj._sim_can_sleep:
            self._sleepables.append(obj)
        self._wake_pending = True
        return obj

    def add_end_hook(self, fn: Callable[[int], None]) -> None:
        """Register *fn(cycle)* to run once when :meth:`run` finishes."""
        self._end_hooks.append(fn)

    @property
    def objects(self) -> tuple:
        return tuple(self._objects)

    # ------------------------------------------------------------------
    # snapshot protocol
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict:
        """Kernel state: the cycle counter and the full bit-generator
        state of the global RNG (plain ints/dicts, picklable)."""
        return {"cycle": self.cycle,
                "rng": self.rng.bit_generator.state,
                "net_rng": self.net_rng.bit_generator.state}

    def load_state_dict(self, state: Dict) -> None:
        """Restore kernel state in place.

        The RNG state is written onto the *existing* generator so every
        component holding a reference to ``sim.rng`` keeps a valid one.
        """
        self.cycle = int(state["cycle"])
        self.rng.bit_generator.state = state["rng"]
        if "net_rng" in state:
            self.net_rng.bit_generator.state = state["net_rng"]

    # ------------------------------------------------------------------
    # sleep management (fast engine)
    # ------------------------------------------------------------------
    def wake_all(self) -> None:
        """Wake every registered object (used after snapshot restore —
        pending work may have appeared in components the scheduler
        believed idle)."""
        for obj in self._objects:
            obj._sim_awake = True
            obj._sim_in_lists = True
        self._wake_pending = True

    @property
    def sleeping_objects(self) -> int:
        """Number of currently sleeping components (introspection)."""
        return sum(1 for obj in self._sleepables if not obj._sim_awake)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the simulation by one cycle."""
        self._step()

    def _step_legacy(self) -> None:
        c = self.cycle
        for obj in self._phase_lists["deliver"]:
            obj.deliver(c)
        for obj in self._phase_lists["transfer"]:
            obj.transfer(c)
        for obj in self._phase_lists["inject"]:
            obj.inject(c)
        for obj in self._phase_lists["control"]:
            obj.control(c)
        self.cycle = c + 1

    def _rebuild_awake_lists(self) -> None:
        """Re-derive the awake lists from the canonical phase lists.

        Filtering the full registration-ordered lists (rather than
        appending wakes as they come in) keeps phase execution order —
        and with it the order of shared-RNG draws — identical to the
        legacy engine's, at a cost that only occurs on sleep/wake
        *transitions*, never on steady-state cycles."""
        self._wake_pending = False
        pl = self._phase_lists
        self._awake_deliver = [o.deliver for o in pl["deliver"]
                               if o._sim_in_lists]
        self._awake_transfer = [o.transfer for o in pl["transfer"]
                                if o._sim_in_lists]
        self._awake_inject = [o.inject for o in pl["inject"]
                              if o._sim_in_lists]
        self._awake_control = [o.control for o in pl["control"]
                               if o._sim_in_lists]
        self._awake_sleepables = [o for o in self._sleepables
                                  if o._sim_in_lists]

    def _step_fast(self) -> None:
        """One cycle over the awake lists only.

        A component woken mid-cycle (flit sent into one of its links)
        re-enters the lists at the next cycle boundary; the phases it
        skips in the wake cycle are provably no-ops (see the module
        docstring), so the state trajectory matches the legacy engine's.
        """
        if self._wake_pending:
            self._rebuild_awake_lists()
        c = self.cycle
        for method in self._awake_deliver:
            method(c)
        for method in self._awake_transfer:
            method(c)
        for method in self._awake_inject:
            method(c)
        for method in self._awake_control:
            method(c)
        # sleep decision: only after the object has just executed a
        # provably no-op cycle (its predicate holds *now*), so any
        # end-of-activity bookkeeping (e.g. the hybrid router's
        # crossbar-usage flags) has already settled to the idle state.
        # The scan runs every 4th cycle: sleeping *later* than strictly
        # possible is always state-safe (the extra cycles are exactly
        # the no-ops the legacy engine runs), and amortising the scan
        # both cuts its cost and batches sleep transitions into fewer
        # awake-list rebuilds.
        if c & 3 == 3:
            slept = False
            for obj in self._awake_sleepables:
                if obj._sim_awake and obj.sim_idle(c):
                    obj._sim_awake = False
                    obj._sim_in_lists = False
                    slept = True
            if slept:
                self._rebuild_awake_lists()
        self.cycle = c + 1

    def run(self, cycles: int, until: Optional[Callable[[], bool]] = None) -> int:
        """Run for *cycles* cycles (or until *until()* returns True).

        Returns the number of cycles actually executed.
        """
        executed = 0
        if until is None:
            for _ in range(cycles):
                self._step()
            executed = cycles
        else:
            for _ in range(cycles):
                if until():
                    break
                self._step()
                executed += 1
        for hook in self._end_hooks:
            hook(self.cycle)
        return executed
