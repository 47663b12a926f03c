"""Graceful-degradation study: protocol slowdown under message loss.

The paper assumes a reliable network; this driver asks how each
protocol would fare on a lossy one (docs/robustness.md).  For every
protocol it runs the same application across a list of drop
probabilities on the same network, reading the outcome from the
metrics registry (``transport.*`` / ``faults.*``), and reports the
slowdown of each lossy run relative to that protocol's own fault-free
run.  Because the fault plan is seeded, every cell of the resulting
table is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.config import MachineConfig
from repro.lab import Lab, RunSpec
from repro.protocols import PROTOCOL_NAMES

DEFAULT_RATES = (0.0, 0.001, 0.01, 0.05)


@dataclass(frozen=True)
class LossPoint:
    """One (protocol, drop rate) cell of the degradation study."""

    protocol: str
    drop_prob: float
    elapsed_cycles: float
    slowdown: float          # vs the same protocol's fault-free run
    drops: float             # faults.drops_total
    retransmits: float       # transport.retransmits_total
    timeout_fires: float     # transport.timeout_fires_total
    duplicates_suppressed: float


def _metric(registry, name: str) -> float:
    """A registry total, or 0.0 when the metric was never installed
    (fault-free runs carry no ``transport.*``/``faults.*`` series)."""
    return registry.total(name) if name in registry else 0.0


def loss_sweep(app: str, config: MachineConfig,
               rates: Sequence[float] = DEFAULT_RATES,
               protocols: Optional[Sequence[str]] = None,
               app_params: Optional[dict] = None,
               lab: Optional[Lab] = None,
               ) -> Dict[str, List[LossPoint]]:
    """Run the application for every protocol at every drop rate.

    Each cell is a :class:`repro.lab.RunSpec` of the named ``app``
    and the whole grid resolves through ``lab`` (fanned across cores
    and cached when the lab is configured to).

    The first entry of ``rates`` is each protocol's slowdown baseline
    (pass 0.0 first — the default — to measure against a fault-free
    run).  Returns ``{protocol: [LossPoint, ...]}`` in rate order.
    """
    if not rates:
        raise ValueError("rates must be non-empty")
    protocols = list(protocols) if protocols else list(PROTOCOL_NAMES)
    if lab is None:
        lab = Lab()
    cells = {(protocol, rate): RunSpec(
                 app, app_params or {}, protocol=protocol,
                 config=config.replace(
                     faults=config.faults.replace(drop_prob=rate)))
             for protocol in protocols for rate in rates}
    run = lab.run_grid(cells)

    results: Dict[str, List[LossPoint]] = {}
    for protocol in protocols:
        points: List[LossPoint] = []
        baseline = run[protocol, rates[0]].elapsed_cycles
        for rate in rates:
            result = run[protocol, rate]
            registry = result.registry
            points.append(LossPoint(
                protocol=protocol,
                drop_prob=rate,
                elapsed_cycles=result.elapsed_cycles,
                slowdown=result.elapsed_cycles / baseline,
                drops=_metric(registry, "faults.drops_total"),
                retransmits=_metric(
                    registry, "transport.retransmits_total"),
                timeout_fires=_metric(
                    registry, "transport.timeout_fires_total"),
                duplicates_suppressed=_metric(
                    registry, "transport.duplicates_suppressed_total"),
            ))
        results[protocol] = points
    return results


def format_loss_table(results: Dict[str, List[LossPoint]]) -> str:
    """Render a loss sweep as a fixed-width text table."""
    lines = [f"{'proto':>6s} {'loss':>7s} {'elapsed':>12s} "
             f"{'slowdown':>9s} {'drops':>6s} {'retx':>5s} "
             f"{'timeouts':>8s} {'dup_supp':>8s}"]
    for protocol, points in results.items():
        for p in points:
            lines.append(
                f"{protocol:>6s} {p.drop_prob:7.1%} "
                f"{p.elapsed_cycles:12.0f} {p.slowdown:8.2f}x "
                f"{p.drops:6.0f} {p.retransmits:5.0f} "
                f"{p.timeout_fires:8.0f} "
                f"{p.duplicates_suppressed:8.0f}")
    return "\n".join(lines)
