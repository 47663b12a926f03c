"""Ablation studies for the design choices DESIGN.md calls out.

Each function isolates one mechanism and returns paired measurements
so its contribution can be quantified:

1. run-length diffs vs whole-page transfer pricing;
2. the hybrid's copyset piggyback heuristic (copyset/always/never);
3. lock forwarding through the static owner vs broadcast requests;
4. Ethernet collision modelling (see Table 2);
5. the lazy protocols' doubled per-byte software overhead.

Every run resolves through a :class:`repro.lab.Lab` (pass ``lab=`` to
share a cache with other drivers, as ``repro report`` does).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.analysis.experiments import APP_PARAMS
from repro.core.config import (MachineConfig, NetworkConfig,
                               OverheadConfig)
from repro.core.metrics import RunResult
from repro.lab import Lab, RunSpec


def _grid(app: str, scale: str, nprocs: int,
          variants: Dict[str, dict],
          lab: Optional[Lab]) -> Dict[str, RunResult]:
    """``app`` under LH on ``nprocs`` ATM processors, once per variant
    (``{label: RunSpec fields to replace}``), as one lab batch."""
    base = RunSpec(app, APP_PARAMS[scale][app],
                   config=MachineConfig(nprocs=nprocs,
                                        network=NetworkConfig.atm()))
    cells = {label: replace(base, **fields)
             for label, fields in variants.items()}
    lab = lab if lab is not None else Lab()
    return lab.run_grid(cells)


def ablate_diff_encoding(app: str = "water", nprocs: int = 16,
                         scale: str = "bench",
                         lab: Optional[Lab] = None
                         ) -> Dict[str, RunResult]:
    """Diffs vs whole pages: price every diff at the full page size,
    modelling a DSM without run-length encoding.  The paper's diffs
    are what keep the update protocols' data volume reasonable."""
    return _grid(app, scale, nprocs, {
        "diffs": {},
        "whole_pages": {"protocol_options": {
            "price_diffs_as_pages": True}}}, lab)


def ablate_hybrid_heuristic(app: str = "water", nprocs: int = 16,
                            scale: str = "bench",
                            lab: Optional[Lab] = None
                            ) -> Dict[str, RunResult]:
    """LH's copyset piggyback rule vs always-push vs never-push.
    'never' degenerates toward LI (more misses); 'always' toward LU's
    data volume (useless diffs for uncached pages)."""
    return _grid(app, scale, nprocs, {
        policy: {"protocol_options": {"piggyback_policy": policy}}
        for policy in ("copyset", "always", "never")}, lab)


def ablate_lock_broadcast(app: str = "cholesky", nprocs: int = 8,
                          scale: str = "bench",
                          lab: Optional[Lab] = None
                          ) -> Dict[str, RunResult]:
    """Owner-forwarded lock requests (3 messages, up to 2 hops) vs
    broadcast requests (n messages, 1 hop): the latency/message-count
    trade the paper's conclusion points at."""
    return _grid(app, scale, nprocs, {
        "forwarding": {},
        "broadcast": {"lock_broadcast": True}}, lab)


def ablate_lazy_overhead_factor(app: str = "water", nprocs: int = 16,
                                scale: str = "bench",
                                lab: Optional[Lab] = None
                                ) -> Dict[str, RunResult]:
    """The simulation charges lazy protocols double the per-byte
    software overhead for their extra complexity; this quantifies how
    much of the eager/lazy gap that assumption gives back."""
    flat = MachineConfig(
        nprocs=nprocs, network=NetworkConfig.atm(),
        overhead=OverheadConfig(lazy_per_byte_factor=1.0))
    return _grid(app, scale, nprocs, {
        "doubled": {}, "flat": {"config": flat}}, lab)
