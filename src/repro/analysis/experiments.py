"""Experiment drivers: one function per table/figure of the paper.

Every driver runs the relevant protocol/application/network sweep and
returns a structured result carrying both our measurements and the
paper's reference numbers, so the benchmarks can print
paper-vs-measured rows.  Problem sizes are scaled down from the paper
(512x512 Jacobi, 18-city TSP, 288-molecule Water, bcsstk14 Cholesky)
to keep the pure-Python simulation fast; pass ``scale="paper"`` for
full-size runs where feasible.

Every driver resolves its runs through a :class:`repro.lab.Lab`
(pass one to parallelize across cores and cache results on disk; by
default each driver uses a private in-memory lab).  Sharing one lab
across drivers — as ``repro report`` does — dedupes the repeated
one-processor baselines and identical cells between tables, so each
unique configuration simulates exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.core.config import (ATM_MBPS, ETHERNET_MBPS, GIGABIT_MBPS,
                               SMALL_PAGE_SIZE, MachineConfig,
                               NetworkConfig, OverheadConfig)
from repro.core.metrics import RunResult
from repro.lab import Lab, RunSpec
from repro.protocols import PROTOCOL_NAMES

#: Scaled-down application parameters per preset.
APP_PARAMS: Dict[str, Dict[str, dict]] = {
    "small": {  # unit tests: seconds for the whole suite
        "jacobi": dict(n=48, iterations=3),
        "tsp": dict(ncities=8),
        "water": dict(nmols=20, steps=1),
        "cholesky": dict(k=4),
    },
    # The bench preset is calibrated so the cycles of computation per
    # off-node synchronization at 16 processors land near the paper's
    # reported grains (Jacobi ~324K, TSP ~189K, Water ~19K, Cholesky
    # ~4K), despite the scaled-down problem sizes.
    "bench": {  # benchmark harness default
        "jacobi": dict(n=512, iterations=4),
        "tsp": dict(ncities=10, cycles_per_node=1000),
        "water": dict(nmols=96, steps=2, cycles_per_pair=3700),
        # cycle_scale stands in for bcsstk14's much larger columns
        # (n=1806 vs our 36): it lifts the real work per column so the
        # sequential baseline is meaningful while the synchronization
        # rate stays fine-grained.
        "cholesky": dict(k=6, cycle_scale=200),
    },
    "large": {  # closer to the paper's sizes; minutes of wall time
        "jacobi": dict(n=512, iterations=10),
        "tsp": dict(ncities=12, queue_depth=3, cycles_per_node=1000),
        "water": dict(nmols=160, steps=2, cycles_per_pair=2200),
        "cholesky": dict(k=10, cycle_scale=100),
    },
}

DEFAULT_PROCS = [1, 2, 4, 8, 16]


@dataclass
class Curve:
    """One protocol's series across processor counts."""

    protocol: str
    speedup: Dict[int, float] = field(default_factory=dict)
    messages: Dict[int, int] = field(default_factory=dict)
    data_kbytes: Dict[int, float] = field(default_factory=dict)
    results: Dict[int, RunResult] = field(default_factory=dict)


@dataclass
class FigureResult:
    """Measured curves for one figure group, plus paper context."""

    figure: str
    title: str
    app: str
    curves: Dict[str, Curve]
    baseline_cycles: float
    paper_notes: str = ""


def _ensure_lab(lab: Optional[Lab]) -> Lab:
    return lab if lab is not None else Lab()


def protocol_sweep(app: str, network: NetworkConfig,
                   proc_counts: Sequence[int] = DEFAULT_PROCS,
                   protocols: Sequence[str] = PROTOCOL_NAMES,
                   scale: str = "bench",
                   config: Optional[MachineConfig] = None,
                   lab: Optional[Lab] = None) -> FigureResult:
    """Run ``app`` under each protocol across processor counts."""
    lab = _ensure_lab(lab)
    one = RunSpec(app, APP_PARAMS[scale][app],
                  config=(config or MachineConfig()).replace(
                      network=network))
    cells = {"baseline": one.baseline()}
    for protocol in protocols:
        for nprocs in proc_counts:
            if nprocs != 1:
                cells[protocol, nprocs] = replace(
                    one, protocol=protocol,
                    config=one.config.replace(nprocs=nprocs))
    results = lab.run_grid(cells)
    baseline = results["baseline"]
    curves: Dict[str, Curve] = {}
    for protocol in protocols:
        curve = Curve(protocol=protocol)
        for nprocs in proc_counts:
            result = results.get((protocol, nprocs), baseline)
            curve.speedup[nprocs] = result.speedup_over(baseline)
            curve.messages[nprocs] = result.total_messages
            curve.data_kbytes[nprocs] = result.data_kbytes
            curve.results[nprocs] = result
        curves[protocol] = curve
    return FigureResult(figure="", title="", app=app, curves=curves,
                        baseline_cycles=baseline.elapsed_cycles)


# ----------------------------------------------------------------------
# Figures 6-18
# ----------------------------------------------------------------------

def fig6_jacobi_ethernet(scale: str = "bench",
                         proc_counts: Sequence[int] = DEFAULT_PROCS,
                         lab: Optional[Lab] = None) -> FigureResult:
    """Figure 6: Jacobi speedup on the 10 Mbit Ethernet — peaks around
    8 processors (paper: 5.2) and declines."""
    result = protocol_sweep("jacobi", NetworkConfig.ethernet(),
                            proc_counts, scale=scale, lab=lab)
    result.figure = "fig6"
    result.title = "Speedup for Jacobi on Ethernet"
    result.paper_notes = ("paper: peaks ~5.2 at 8 procs, declines at "
                          "16; bandwidth + barrier contention bound")
    return result


def _atm_figures(app: str, figure: str, title: str, notes: str,
                 scale: str, proc_counts: Sequence[int],
                 lab: Optional[Lab] = None) -> FigureResult:
    result = protocol_sweep(app, NetworkConfig.atm(), proc_counts,
                            scale=scale, lab=lab)
    result.figure = figure
    result.title = title
    result.paper_notes = notes
    return result


def fig7_9_jacobi_atm(scale: str = "bench",
                      proc_counts: Sequence[int] = DEFAULT_PROCS,
                      lab: Optional[Lab] = None) -> FigureResult:
    """Figures 7-9: Jacobi on ATM — good speedup for all protocols
    (paper: ~14 at 16 procs); EI moves the most data (whole pages)."""
    return _atm_figures(
        "jacobi", "fig7-9", "Jacobi on ATM (speedup/messages/data)",
        "paper: ~14x at 16p, protocols within ~10%; EI data highest",
        scale, proc_counts, lab=lab)


def fig10_12_tsp_atm(scale: str = "bench",
                     proc_counts: Sequence[int] = DEFAULT_PROCS,
                     lab: Optional[Lab] = None) -> FigureResult:
    """Figures 10-12: TSP on ATM — eager slightly beats lazy (stale
    global minimum prunes worse under lazy)."""
    return _atm_figures(
        "tsp", "fig10-12", "TSP on ATM (speedup/messages/data)",
        "paper: eager >= lazy (fresher bound); queue lock contention",
        scale, proc_counts, lab=lab)


def fig13_15_water_atm(scale: str = "bench",
                       proc_counts: Sequence[int] = DEFAULT_PROCS,
                       lab: Optional[Lab] = None) -> FigureResult:
    """Figures 13-15: Water on ATM — LH best; lazy > eager; EU sends
    an order of magnitude more messages."""
    return _atm_figures(
        "water", "fig13-15", "Water on ATM (speedup/messages/data)",
        "paper: LH best (migratory molecules); EU ~10x messages",
        scale, proc_counts, lab=lab)


def fig16_18_cholesky_atm(scale: str = "bench",
                          proc_counts: Sequence[int] = DEFAULT_PROCS,
                          lab: Optional[Lab] = None) -> FigureResult:
    """Figures 16-18: Cholesky on ATM — speedup <= ~1.3 under every
    protocol; synchronization dominates (96% of messages)."""
    return _atm_figures(
        "cholesky", "fig16-18",
        "Cholesky on ATM (speedup/messages/data)",
        "paper: <=1.3x all protocols; lazy moves far less than eager",
        scale, proc_counts, lab=lab)


# ----------------------------------------------------------------------
# Tables 2-5
# ----------------------------------------------------------------------

#: Table 2's five networks (name, config).
TABLE2_NETWORKS: List = [
    ("10Mb Ethernet w/ coll", NetworkConfig.ethernet(collisions=True)),
    ("10Mb Ethernet w/o coll",
     NetworkConfig.ethernet(collisions=False)),
    ("10Mb ATM", NetworkConfig.atm(ETHERNET_MBPS)),
    ("100Mb ATM", NetworkConfig.atm(ATM_MBPS)),
    ("1Gb ATM", NetworkConfig.atm(GIGABIT_MBPS)),
]


def _speedups(cells: Dict[tuple, RunSpec],
              lab: Optional[Lab]) -> Dict[tuple, float]:
    """Resolve a grid ``{key: RunSpec}`` and return each cell's
    speedup over its :meth:`RunSpec.baseline`.  Cells and baselines
    go to the lab as one batch, which simulates a baseline that
    several cells share once."""
    specs = list(cells.values())
    results = _ensure_lab(lab).run_many(
        specs + [spec.baseline() for spec in specs])
    return {key: result.speedup_over(baseline)
            for key, result, baseline
            in zip(cells, results, results[len(specs):])}


def tab2_networks(scale: str = "bench", nprocs: int = 16,
                  lab: Optional[Lab] = None
                  ) -> Dict[str, Dict[str, float]]:
    """Table 2: Jacobi and Water speedups (LH) on five networks."""
    apps = ("jacobi", "water")
    speedup = _speedups({
        (name, app): RunSpec(
            app, APP_PARAMS[scale][app],
            config=MachineConfig(nprocs=nprocs, network=network))
        for app in apps for name, network in TABLE2_NETWORKS}, lab)
    return {name: {app: speedup[name, app] for app in apps}
            for name, _network in TABLE2_NETWORKS}


def tab3_overheads(scale: str = "bench", nprocs: int = 16,
                   apps: Sequence[str] = ("jacobi", "tsp", "water",
                                          "cholesky"),
                   protocols: Sequence[str] = PROTOCOL_NAMES,
                   lab: Optional[Lab] = None
                   ) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Table 3: speedups with zero / normal / double software overhead
    (16 processors, ATM)."""
    levels = {"zero": 0.0, "normal": 1.0, "double": 2.0}
    speedup = _speedups({
        (app, label, protocol): RunSpec(
            app, APP_PARAMS[scale][app], protocol=protocol,
            config=MachineConfig(
                nprocs=nprocs, network=NetworkConfig.atm(),
                overhead=OverheadConfig(scale=overhead_scale)))
        for app in apps
        for label, overhead_scale in levels.items()
        for protocol in protocols}, lab)
    return {app: {label: {protocol: speedup[app, label, protocol]
                          for protocol in protocols}
                  for label in levels}
            for app in apps}


def tab4_cpu_speeds(scale: str = "bench", nprocs: int = 16,
                    speeds_mhz: Sequence[float] = (20.0, 40.0, 80.0),
                    apps: Sequence[str] = ("jacobi", "tsp", "water",
                                           "cholesky"),
                    lab: Optional[Lab] = None
                    ) -> Dict[str, Dict[float, float]]:
    """Table 4: LH speedups at different processor speeds.  The
    network stays fixed in physical time, so faster processors shift
    the compute/communication ratio against the DSM."""
    speedup = _speedups({
        (app, mhz): RunSpec(
            app, APP_PARAMS[scale][app],
            config=MachineConfig(nprocs=nprocs, cpu_mhz=mhz,
                                 network=NetworkConfig.atm()))
        for app in apps for mhz in speeds_mhz}, lab)
    return {app: {mhz: speedup[app, mhz] for mhz in speeds_mhz}
            for app in apps}


def tab5_page_size(scale: str = "bench",
                   proc_counts: Sequence[int] = (8, 16),
                   apps: Sequence[str] = ("jacobi", "tsp", "water",
                                          "cholesky"),
                   lab: Optional[Lab] = None
                   ) -> Dict[str, Dict[int, Dict[int, float]]]:
    """Table 5: LH speedups with 4096- vs 1024-byte pages.  Smaller
    pages reduce false sharing but raise the miss count."""
    page_sizes = (4096, SMALL_PAGE_SIZE)
    speedup = _speedups({
        (app, page_size, nprocs): RunSpec(
            app, APP_PARAMS[scale][app],
            config=MachineConfig(nprocs=nprocs, page_size=page_size,
                                 network=NetworkConfig.atm()))
        for app in apps for page_size in page_sizes
        for nprocs in proc_counts}, lab)
    return {app: {page_size: {nprocs: speedup[app, page_size, nprocs]
                              for nprocs in proc_counts}
                  for page_size in page_sizes}
            for app in apps}


def sync_message_fraction(app: str, protocol: str = "lh",
                          nprocs: int = 16,
                          scale: str = "bench",
                          lab: Optional[Lab] = None) -> float:
    """Section 6.2's headline statistic: the fraction of all messages
    that exist purely for synchronization (paper: 83% for Water, 96%
    for Cholesky)."""
    result = _ensure_lab(lab).run(RunSpec(
        app, APP_PARAMS[scale][app], protocol=protocol,
        config=MachineConfig(nprocs=nprocs,
                             network=NetworkConfig.atm())))
    total = result.total_messages
    if total == 0:
        return 0.0
    return result.sync_messages / total
