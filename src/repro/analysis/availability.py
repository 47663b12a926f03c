"""Availability study: protocol behaviour under node crashes.

The paper's machines never fail; this driver asks what the protocols
pay when they do (docs/robustness.md).  For every (protocol, network)
pair it runs the same application across a list of crash rates —
exponential MTTF per node, fixed MTTR, both drawn from seeded
substreams so every cell is exactly reproducible — and reports:

- **completion rate** — fraction of nodes that finished (below 1.0
  only for crash-stop runs, where dead nodes never rejoin and the
  survivors block at the next synchronization with them),
- **recovery latency** — mean observed outage (``
  faults.recovery_outage_cycles``),
- **message overhead** — wire packets relative to the same
  (protocol, network) cell's crash-free baseline: retransmissions
  probing dead peers, session resets, and replayed traffic all end up
  here.

Crash-stop runs never drain (retransmission timers probe the dead
node forever at the capped RTO), so every cell runs under an event
budget; a crash-stop cell that spends it is a partial result, any
other cell that does fails the sweep.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import MachineConfig, NetworkConfig
from repro.lab import Lab, RunSpec

# MTTF values in microseconds; 0.0 is the crash-free baseline cell
# (run with the transport forced on, so packet counts are comparable).
DEFAULT_MTTFS = (0.0, 50_000.0, 20_000.0)
DEFAULT_MTTR_US = 5_000.0
DEFAULT_HORIZON_US = 100_000.0
DEFAULT_MAX_EVENTS = 500_000
DEFAULT_PROTOCOLS = ("li", "lh")
DEFAULT_NETWORKS = (("ethernet", NetworkConfig.ethernet()),
                    ("atm", NetworkConfig.atm()))


@dataclass(frozen=True)
class AvailabilityPoint:
    """One (protocol, network, crash rate) cell of the study."""

    protocol: str
    network: str
    mttf_us: float           # 0.0 = crash-free baseline
    mttr_us: float           # 0.0 = crash-stop
    elapsed_cycles: float
    completion_rate: float   # finished nodes / nodes
    crashes: float           # faults.crashes_total
    recoveries: float        # faults.recoveries_total
    mean_outage_cycles: float  # recovery latency (0 when no recovery)
    message_overhead: float  # packets sent / baseline packets sent
    retransmits: float       # transport.retransmits_total
    replayed: float          # faults.recovery_replayed_total
    crash_dropped: float     # faults.crash_dropped_packets_total


def _metric(registry, name: str) -> float:
    return registry.total(name) if name in registry else 0.0


def _mean_outage(registry) -> float:
    if "faults.recovery_outage_cycles" not in registry:
        return 0.0
    child = registry.get("faults.recovery_outage_cycles").labels()
    return child.sum / child.count if child.count else 0.0


def availability_sweep(app: str, app_params: Optional[dict] = None,
                       config: Optional[MachineConfig] = None,
                       mttfs: Sequence[float] = DEFAULT_MTTFS,
                       mttr_us: float = DEFAULT_MTTR_US,
                       horizon_us: float = DEFAULT_HORIZON_US,
                       protocols: Sequence[str] = DEFAULT_PROTOCOLS,
                       networks: Sequence[Tuple[str, NetworkConfig]] =
                       DEFAULT_NETWORKS,
                       max_events: int = DEFAULT_MAX_EVENTS,
                       lab: Optional[Lab] = None,
                       ) -> Dict[Tuple[str, str], List[AvailabilityPoint]]:
    """Run the grid; returns ``{(protocol, network): [point, ...]}``
    in ``mttfs`` order.

    Each cell is a :class:`repro.lab.RunSpec` of the named ``app``
    carrying the event budget, and the whole grid resolves through
    ``lab`` (fanned across cores and cached when the lab is configured
    to).  A cell whose workers all finish has its answer checked
    against the sequential oracle like any other run.  The first entry
    of ``mttfs`` should be 0.0: it becomes the message-overhead
    baseline for its (protocol, network) row.
    """
    if config is None:
        config = MachineConfig(nprocs=4)
    if not mttfs:
        raise ValueError("mttfs must be non-empty")
    if lab is None:
        lab = Lab()

    def cell(network: NetworkConfig, mttf: float) -> MachineConfig:
        if mttf:
            return config.replace(network=network,
                                  faults=config.faults.replace(
                                      crash_mttf_us=mttf,
                                      crash_mttr_us=mttr_us,
                                      crash_horizon_us=horizon_us))
        # Crash-free baseline: force the transport so packet
        # accounting exists and is comparable.
        return config.replace(network=network,
                              transport=dataclasses.replace(
                                  config.transport, force=True))

    cells = {(protocol, net_name, mttf): RunSpec(
                 app, app_params or {}, protocol=protocol,
                 config=cell(network, mttf), max_events=max_events)
             for protocol in protocols for net_name, network in networks
             for mttf in mttfs}
    run = lab.run_grid(cells)

    results: Dict[Tuple[str, str], List[AvailabilityPoint]] = {}
    for protocol in protocols:
        for net_name, _network in networks:
            baseline = run[protocol, net_name, mttfs[0]].registry
            baseline_sent = _metric(
                baseline, "transport.packets_sent_total") or 1.0
            points: List[AvailabilityPoint] = []
            for mttf in mttfs:
                result = run[protocol, net_name, mttf]
                registry = result.registry
                finished = sum(1 for t in result.finish_times if t)
                points.append(AvailabilityPoint(
                    protocol=protocol,
                    network=net_name,
                    mttf_us=mttf,
                    mttr_us=mttr_us if mttf else 0.0,
                    elapsed_cycles=result.elapsed_cycles,
                    completion_rate=finished / result.nprocs,
                    crashes=_metric(registry, "faults.crashes_total"),
                    recoveries=_metric(registry,
                                       "faults.recoveries_total"),
                    mean_outage_cycles=_mean_outage(registry),
                    message_overhead=_metric(
                        registry, "transport.packets_sent_total")
                    / baseline_sent,
                    retransmits=_metric(
                        registry, "transport.retransmits_total"),
                    replayed=_metric(
                        registry, "faults.recovery_replayed_total"),
                    crash_dropped=_metric(
                        registry,
                        "faults.crash_dropped_packets_total"),
                ))
            results[(protocol, net_name)] = points
    return results


def format_availability_table(
        results: Dict[Tuple[str, str], List[AvailabilityPoint]]) -> str:
    """Render an availability sweep as a fixed-width text table."""
    lines = [f"{'proto':>6s} {'network':>9s} {'mttf_us':>9s} "
             f"{'complete':>8s} {'crashes':>7s} {'recov':>5s} "
             f"{'outage':>10s} {'msg_ovh':>8s} {'retx':>5s} "
             f"{'replay':>6s} {'dropped':>7s}"]
    for (protocol, network), points in results.items():
        for p in points:
            mttf = "-" if not p.mttf_us else f"{p.mttf_us:.0f}"
            lines.append(
                f"{protocol:>6s} {network:>9s} {mttf:>9s} "
                f"{p.completion_rate:8.2%} {p.crashes:7.0f} "
                f"{p.recoveries:5.0f} {p.mean_outage_cycles:10.0f} "
                f"{p.message_overhead:7.2f}x {p.retransmits:5.0f} "
                f"{p.replayed:6.0f} {p.crash_dropped:7.0f}")
    return "\n".join(lines)
