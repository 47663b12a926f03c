"""Architectural and cost-model configuration.

All simulated time is measured in *processor cycles* of the configured
CPU.  Network characteristics are specified in physical units
(bits/second, microseconds) and converted to cycles through the machine's
clock, so a processor-speed sweep (paper Table 4) automatically changes
the compute/communication ratio without touching the network model.

Every constant reconstructed from the OCR-damaged paper text is defined
here, once, with the reconstruction noted (see DESIGN.md section 2.2).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Tuple

# --- Paper defaults (reconstructed where the OCR dropped digits) -------

DEFAULT_CPU_MHZ = 40.0  # "4MHz RISC processors" -> 40 MHz (1993 era)
DEFAULT_PAGE_SIZE = 4096  # "496 byte pages" -> 4096
SMALL_PAGE_SIZE = 1024  # Table 5: "page size of 124 bytes" -> 1024
WORD_SIZE = 4  # 32-bit words

ETHERNET_MBPS = 10.0  # "1-megabit Ethernet" -> 10 Mbit/s
ATM_MBPS = 100.0  # "1 MBit/sec cross-bar switch" -> 100 Mbit/s
GIGABIT_MBPS = 1000.0  # Table 2's "GBit ATM"

# Software overhead: "(1 + message length 1.5/4) processor cycles" at
# both ends of every message -> fixed ~1000 cycles (Peregrine-class RPC
# dispatch) plus 1.5 cycles per 4 bytes.
OVERHEAD_FIXED_CYCLES = 1000.0
OVERHEAD_PER_BYTE_CYCLES = 1.5 / 4.0
# "The lazy implementation's extra complexity is modeled by doubling the
# per-byte message overhead both at the sender and at the receiver."
LAZY_PER_BYTE_FACTOR = 2.0

DIFF_CYCLES_PER_WORD = 4.0  # "four cycles per word per page"

# Fixed protocol header per message.  The paper counts only shared data
# in message *lengths*; the header stands in for the minimum wire cost of
# a small control message.
MESSAGE_HEADER_BYTES = 64


@dataclass(frozen=True)
class NetworkConfig:
    """Physical network description.

    ``kind`` selects the contention model:

    - ``"ethernet"``: shared broadcast medium; at most one message in
      flight machine-wide, with optional collision/backoff penalties.
    - ``"atm"``: crossbar switch; a message occupies its source output
      port and destination input port, so disjoint pairs communicate
      concurrently.
    - ``"ideal"``: zero contention, zero wire time (unit tests).
    """

    kind: str = "atm"
    bandwidth_mbps: float = ATM_MBPS
    latency_us: float = 10.0
    collisions: bool = False

    def __post_init__(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth_mbps must be > 0")

    @property
    def bandwidth_bps(self) -> float:
        return self.bandwidth_mbps * 1e6

    @staticmethod
    def ethernet(collisions: bool = True) -> "NetworkConfig":
        return NetworkConfig(kind="ethernet", bandwidth_mbps=ETHERNET_MBPS,
                             latency_us=5.0, collisions=collisions)

    @staticmethod
    def atm(bandwidth_mbps: float = ATM_MBPS) -> "NetworkConfig":
        return NetworkConfig(kind="atm", bandwidth_mbps=bandwidth_mbps,
                             latency_us=10.0)

    @staticmethod
    def ideal() -> "NetworkConfig":
        return NetworkConfig(kind="ideal", bandwidth_mbps=1e9,
                             latency_us=0.0)


@dataclass(frozen=True)
class OverheadConfig:
    """Per-message software cost model (paper section 5.3).

    ``scale`` implements Table 3's zero / normal / double sweep; the
    fixed, per-byte and per-word costs are the module constants above.
    """

    lazy_per_byte_factor: float = LAZY_PER_BYTE_FACTOR
    scale: float = 1.0

    def message_cycles(self, size_bytes: int, lazy: bool) -> float:
        """Software cost, in cycles, paid at *each* end of a message."""
        per_byte = OVERHEAD_PER_BYTE_CYCLES
        if lazy:
            per_byte *= self.lazy_per_byte_factor
        return self.scale * (OVERHEAD_FIXED_CYCLES + size_bytes * per_byte)

    def diff_cycles(self, words_per_page: int) -> float:
        """Cost of creating one diff ("per word per page")."""
        return self.scale * DIFF_CYCLES_PER_WORD * words_per_page


@dataclass(frozen=True)
class StallSpec:
    """One injected CPU stall: node ``proc`` loses its processor for
    ``duration_us`` starting at simulated time ``at_us``."""

    proc: int
    at_us: float
    duration_us: float

    def __post_init__(self) -> None:
        if self.at_us < 0 or self.duration_us < 0:
            raise ValueError("stall times must be non-negative")


@dataclass(frozen=True)
class CrashSpec:
    """One scheduled node crash: ``proc`` fails at simulated time
    ``at_us`` and, for crash-recover, restarts ``down_us`` later with
    the state it held at the crash instant.  ``down_us=None`` is a
    crash-stop: the node never returns, so ``Machine.run`` bounds the
    run with an event budget and returns a partial result.

    ``at_us`` must be strictly positive so worker processes exist by
    the time the crash fires (they spawn at t=0)."""

    proc: int
    at_us: float
    down_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.proc < 0:
            raise ValueError("crash proc must be non-negative")
        if self.at_us <= 0:
            raise ValueError("crash at_us must be positive")
        if self.down_us is not None and self.down_us <= 0:
            raise ValueError(
                "crash down_us must be positive (None for crash-stop)")


@dataclass(frozen=True)
class FaultConfig:
    """Deterministic fault-injection plan (see :mod:`repro.faults`).

    All probabilities are per network transmission.  Decisions are
    drawn from named substreams of ``seed`` (defaulting to the
    machine seed), so two runs with identical configuration inject
    the exact same faults, and enabling one fault class never
    perturbs another's stream.  The default (all rates zero, no
    stalls) disables the subsystem entirely: the machine then skips
    the reliable transport and behaves bit-for-bit like a fault-free
    build.
    """

    drop_prob: float = 0.0
    dup_prob: float = 0.0
    reorder_prob: float = 0.0
    stalls: "Tuple[StallSpec, ...]" = ()
    seed: "int | None" = None       # fault substream seed (None: machine)
    # Node-lifecycle faults (crash-stop / crash-recover).  ``crashes``
    # is an explicit schedule; ``crash_mttf_us`` > 0 additionally draws
    # exponential failure times per node (mean ``crash_mttf_us``) up to
    # ``crash_horizon_us``, each paired with an exponential repair time
    # of mean ``crash_mttr_us`` (0 means the drawn crashes never
    # recover).  Both draws come from their own named substreams, so
    # enabling message-level faults never moves a crash and vice versa.
    crashes: "Tuple[CrashSpec, ...]" = ()
    crash_mttf_us: float = 0.0
    crash_mttr_us: float = 0.0
    crash_horizon_us: float = 0.0

    def __post_init__(self) -> None:
        for name in ("drop_prob", "dup_prob", "reorder_prob"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1): {value}")
        object.__setattr__(self, "stalls", tuple(self.stalls))
        object.__setattr__(self, "crashes", tuple(self.crashes))
        for name in ("crash_mttf_us", "crash_mttr_us",
                     "crash_horizon_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.crash_mttf_us and not self.crash_horizon_us:
            raise ValueError(
                "crash_mttf_us needs crash_horizon_us > 0: the crash "
                "plan is pre-drawn up to the horizon so it is a pure "
                "function of the seed, independent of run length")

    @property
    def enabled(self) -> bool:
        """Whether any fault source is configured."""
        return bool(self.drop_prob or self.dup_prob or self.reorder_prob
                    or self.stalls or self.crash_enabled)

    @property
    def crash_enabled(self) -> bool:
        """Whether any node-lifecycle fault is configured."""
        return bool(self.crashes or self.crash_mttf_us)

    def replace(self, **kwargs) -> "FaultConfig":
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class TransportConfig:
    """Reliable-transport switch (see :mod:`repro.net.transport`, whose
    module constants hold the timer tuning).

    ``force`` runs every message through the transport even with no
    faults configured.  The default keeps fault-free runs on the raw,
    zero-overhead path; crash sweeps force it so the clean cell pays
    the same transport costs as the faulty ones.
    """

    force: bool = False


@dataclass(frozen=True)
class MachineConfig:
    """A cluster of identical nodes joined by one network."""

    nprocs: int = 16
    cpu_mhz: float = DEFAULT_CPU_MHZ
    page_size: int = DEFAULT_PAGE_SIZE
    network: NetworkConfig = field(default_factory=NetworkConfig.atm)
    overhead: OverheadConfig = field(default_factory=OverheadConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    transport: TransportConfig = field(default_factory=TransportConfig)
    seed: int = 1993
    # Garbage-collect consistency metadata (interval records, stored
    # diffs) every N global barrier episodes; 0 disables.  GC first
    # validates every cached page, so it trades messages for memory —
    # exactly the TreadMarks tradeoff.
    gc_barrier_interval: int = 0

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if self.cpu_mhz <= 0:
            raise ValueError("cpu_mhz must be > 0")
        if self.page_size <= 0 or self.page_size % WORD_SIZE:
            raise ValueError(
                f"page_size must be a positive multiple of {WORD_SIZE} bytes")

    @property
    def words_per_page(self) -> int:
        return self.page_size // WORD_SIZE

    @property
    def cycles_per_second(self) -> float:
        return self.cpu_mhz * 1e6

    def seconds_to_cycles(self, seconds: float) -> float:
        return seconds * self.cycles_per_second

    def us_to_cycles(self, microseconds: float) -> float:
        return microseconds * 1e-6 * self.cycles_per_second

    def wire_cycles(self, size_bytes: int) -> float:
        """Transmission (serialization) time for a message, in cycles."""
        seconds = size_bytes * 8.0 / self.network.bandwidth_bps
        return self.seconds_to_cycles(seconds)

    def replace(self, **kwargs) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)

    # -- serialization (repro.lab run-spec fingerprinting) -------------

    def to_dict(self) -> dict:
        """JSON-ready nested dict of every field.  The canonical form
        behind :meth:`repro.lab.RunSpec.fingerprint`; keep it total —
        a field left out would make two different machines collide in
        the result cache."""
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "MachineConfig":
        """Inverse of :meth:`to_dict` (rebuilds the nested configs)."""
        data = dict(data)
        data["network"] = NetworkConfig(**data["network"])
        data["overhead"] = OverheadConfig(**data["overhead"])
        faults = dict(data["faults"])
        faults["stalls"] = tuple(StallSpec(**s)
                                 for s in faults.get("stalls", ()))
        faults["crashes"] = tuple(CrashSpec(**c)
                                  for c in faults.get("crashes", ()))
        data["faults"] = FaultConfig(**faults)
        data["transport"] = TransportConfig(**data["transport"])
        return MachineConfig(**data)
