"""The fault injector: a seeded, deterministic plan of network and
CPU faults.

Determinism discipline
----------------------
Each fault class draws from its own named substream
(``faults.drop``, ``faults.dup``, ``faults.reorder`` — see
:mod:`repro.core.rng`), and one uniform is
drawn from *every* stream for *every* transmission, whether or not
that class is enabled.  Consequences:

- two runs with the same seed and config inject identical faults;
- turning a rate from 0.0 to 0.1 flips exactly the decisions whose
  pre-drawn uniform falls under the new rate, leaving every other
  fault class untouched — so degradation studies compare like with
  like.

The injector never *hides* a loss from the accounting: every drop,
duplicate and reorder hold is counted in the
``faults.*`` metrics, and the conservation property
``received + dropped == sent + duplicated`` is pinned by
``tests/properties/test_fault_tolerance.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Tuple

from repro.core.config import MachineConfig
from repro.core.rng import substream

REORDER_DELAY_US = 300.0  # hold-back applied to a reordered message


class Decision:
    """The injector's verdict for one network transmission."""

    __slots__ = ("drop", "duplicate", "extra_delay")

    def __init__(self, drop: bool = False, duplicate: bool = False,
                 extra_delay: float = 0.0) -> None:
        self.drop = drop
        self.duplicate = duplicate
        self.extra_delay = extra_delay

    def __repr__(self) -> str:
        return (f"<Decision drop={self.drop} dup={self.duplicate} "
                f"delay={self.extra_delay:g}>")


@dataclass(frozen=True)
class CrashEvent:
    """One resolved entry of the crash plan: node ``proc`` fails at
    ``at_us``; ``down_us`` is the outage length (``None`` = crash-stop,
    the node never returns)."""

    proc: int
    at_us: float
    down_us: Optional[float]


class FaultInjector:
    """Per-transmission fault decisions plus scheduled CPU stalls.

    Every injected fault is counted in one cell: the injector's own
    until :meth:`attach_obs` swaps in the registry's ``faults.*`` child
    (tests may run without obs), read through the public names."""

    #: cell attribute -> the registry counter that takes its place.
    CELLS = {
        "_drops": "faults.drops_total",
        "_duplicates": "faults.duplicates_total",
        "_reorders": "faults.reorders_total",
        "_delay": "faults.delay_cycles_total",
        "_stalls": "faults.stalls_total",
        "_stall_cycles": "faults.stall_cycles_total",
    }

    def __init__(self, config: MachineConfig, obs=None) -> None:
        fc = config.faults
        self.config = config
        seed = fc.seed if fc.seed is not None else config.seed
        self._drop_rng = substream(seed, "faults.drop")
        self._dup_rng = substream(seed, "faults.dup")
        self._reorder_rng = substream(seed, "faults.reorder")
        # The rates decide() reads, resolved once (FaultConfig is frozen).
        self._rates = (fc.drop_prob, fc.dup_prob, fc.reorder_prob)
        self.reorder_delay = config.us_to_cycles(REORDER_DELAY_US)
        # Node-lifecycle plan, drawn eagerly at construction (same
        # pre-draw discipline as the message streams): a pure function
        # of (seed, config), never of what the run does.
        self.crash_plan: Tuple[CrashEvent, ...] = \
            self._build_crash_plan(seed)
        for attr in self.CELLS:
            setattr(self, attr, SimpleNamespace(value=0))
        if obs is not None:
            self.attach_obs(obs)

    def attach_obs(self, obs) -> None:
        from repro.obs import ROBUSTNESS_CATALOG, install
        registry = obs.registry
        install(registry, ROBUSTNESS_CATALOG)
        for attr, name in self.CELLS.items():
            child = registry.get(name).labels()
            child.value += getattr(self, attr).value
            setattr(self, attr, child)

    drops = property(lambda self: self._drops.value)
    duplicates = property(lambda self: self._duplicates.value)
    reorders = property(lambda self: self._reorders.value)
    delay_cycles_injected = property(
        lambda self: float(self._delay.value))

    # -- node-lifecycle plan --------------------------------------------

    def _build_crash_plan(self, seed) -> Tuple[CrashEvent, ...]:
        """Resolve explicit :class:`~repro.core.config.CrashSpec`
        entries plus MTTF/MTTR exponential draws into one
        time-ordered plan.

        Draw discipline: each node draws failure times from its own
        ``faults.crash.<proc>`` substream and repair times from
        ``faults.recover.<proc>``, one repair draw per failure draw
        whether or not ``crash_mttr_us`` is enabled — so switching a
        sweep from crash-recover to crash-stop (mttr 0) keeps every
        node's first crash instant in place, one node's draws never
        shift another's, and message-level fault streams are never
        consumed.  MTTF is measured from the previous repair, so a
        node's drawn crashes never overlap its own outage; a
        crash-stop draw ends that node's chain.
        """
        fc = self.config.faults
        events = [CrashEvent(spec.proc, spec.at_us, spec.down_us)
                  for spec in fc.crashes]
        for spec in fc.crashes:
            if not 0 <= spec.proc < self.config.nprocs:
                raise ValueError(
                    f"crash names processor {spec.proc}, machine has "
                    f"{self.config.nprocs}")
        if fc.crash_mttf_us:
            for proc in range(self.config.nprocs):
                crash_rng = substream(seed, f"faults.crash.{proc}")
                repair_rng = substream(seed,
                                       f"faults.recover.{proc}")
                now = 0.0
                while True:
                    ttf = -fc.crash_mttf_us * math.log1p(
                        -crash_rng.random())
                    u_repair = repair_rng.random()
                    at = now + max(ttf, 1e-9)
                    if at >= fc.crash_horizon_us:
                        break
                    down = None
                    if fc.crash_mttr_us:
                        down = max(-fc.crash_mttr_us
                                   * math.log1p(-u_repair), 1e-9)
                    events.append(CrashEvent(proc, at, down))
                    if down is None:
                        break
                    now = at + down
        return tuple(sorted(events,
                            key=lambda ev: (ev.at_us, ev.proc)))

    # -- per-transmission decisions -------------------------------------

    def decide(self, message) -> Optional[Decision]:
        """Fault verdict for one transmission; ``None`` means deliver
        normally.  Always draws one uniform per fault stream so that
        enabling one class never perturbs another's sequence."""
        u_drop = self._drop_rng.random()
        u_dup = self._dup_rng.random()
        u_reorder = self._reorder_rng.random()
        drop, dup, reorder = self._rates
        if u_drop < drop:
            self._drops.value += 1
            return Decision(drop=True)
        extra = 0.0
        if u_reorder < reorder:
            self._reorders.value += 1
            extra = self.reorder_delay
            self._delay.value += extra
        duplicate = u_dup < dup
        if duplicate:
            self._duplicates.value += 1
        if duplicate or extra > 0.0:
            return Decision(duplicate=duplicate, extra_delay=extra)
        return None

    # -- CPU stalls -----------------------------------------------------

    def install_stalls(self, machine) -> None:
        """Schedule every configured stall window on the sim kernel."""
        for spec in self.config.faults.stalls:
            if not 0 <= spec.proc < self.config.nprocs:
                raise ValueError(
                    f"stall names processor {spec.proc}, machine has "
                    f"{self.config.nprocs}")
            at = self.config.us_to_cycles(spec.at_us)
            duration = self.config.us_to_cycles(spec.duration_us)
            machine.sim.schedule(at, self._stall,
                                 machine.nodes[spec.proc], duration)

    def _stall(self, node, cycles: float) -> None:
        node.stall(cycles)
        self._stalls.value += 1
        self._stall_cycles.value += cycles
