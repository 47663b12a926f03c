"""The six pinned workloads: the single definition every ledger row,
later issue and (eventually) ``repro profile`` refers to by name.

Workloads 1-4 are the paper's closed-loop kernels: each simulated
processor issues its next operation only after the previous one
completed.  Workloads 5-6 are a simulated open-loop service: requests
arrive on a seeded Poisson schedule whether or not earlier ones have
finished, and latency is measured from the *scheduled* arrival.

``--seed`` becomes :attr:`MachineConfig.seed`, which drives the
serving request schedule and the fault plan; the four kernels have no
random input, so their simulated statistics are the same for every
seed.  The program under test receives only the :class:`RunSpec`
built here.  Page copies start empty: cold misses are inside every
run.

Sizes, protocols and fault rates never change in a PR that claims a
gain (README.md, "Rules").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.config import FaultConfig, MachineConfig, NetworkConfig
from repro.lab.spec import RunSpec

DEFAULT_SEED = 1993

#: Latency limit the serving SLO attainment is measured against (µs
#: of simulated time) — the repo's serving default.
SLO_US = 500.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: Timed repetitions per fresh interpreter in a full ledger run.
    reps: int
    why: str
    build: Callable[[int], RunSpec]
    #: ``tests/perf/golden`` dump this run must reproduce byte for
    #: byte (the two Jacobi runs have one).
    golden: Optional[str] = None
    serving: bool = False

    def spec(self, seed: int = DEFAULT_SEED) -> RunSpec:
        return self.build(seed)


def _atm(nprocs: int, seed: int, **extra) -> MachineConfig:
    return MachineConfig(nprocs=nprocs, network=NetworkConfig.atm(),
                         seed=seed, **extra)


_STORE = dict(nkeys=256, value_words=32, shards=16, zipf_s=0.99)
_LOSSY = FaultConfig(drop_prob=0.02, dup_prob=0.01, reorder_prob=0.01)

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "jacobi_li_8p", 24,
        "barrier-only coarse grain, 3.4 MB of diffs: mem diffs and "
        "protocols interval bookkeeping dominate; locks and "
        "transport do nothing (the pinned BENCH_core run)",
        lambda seed: RunSpec("jacobi", dict(n=96, iterations=120),
                             protocol="li", config=_atm(8, seed)),
        golden="perfcore_jacobi_li_atm8_it120"),
    Workload(
        "jacobi_li_32p", 14,
        "same code at 4x the vector-clock width and barrier fan-in, "
        "so per-message clock and notice work that scales with "
        "nprocs shows here and not at 8p (the pinned BENCH_core32 "
        "run)",
        lambda seed: RunSpec("jacobi", dict(n=128, iterations=40),
                             protocol="li", config=_atm(32, seed)),
        golden="perfcore_jacobi_li_atm32"),
    Workload(
        "cholesky_lh_8p", 7,
        "fine-grain lock hand-off (13k acquires, 0.5 MB data): sim "
        "dispatch, sync, net, core.deliver and lazy grant_payload "
        "dominate; diffs barely matter",
        lambda seed: RunSpec("cholesky", dict(k=10, cycle_scale=100),
                             protocol="lh", config=_atm(8, seed))),
    Workload(
        "water_eu_16p", 5,
        "eager update pushes to every cacher at release: a 56k "
        "message storm through the same protocols/net layers the "
        "lazy runs use the other way",
        lambda seed: RunSpec("water", dict(nmols=96, steps=2,
                                           cycles_per_pair=3700),
                             protocol="eu", config=_atm(16, seed))),
    Workload(
        "serve_read_clean", 9,
        "open-loop service, 20k requests at 10k rps (below the "
        "knee), 90% unsynchronised local reads: the apps/serve "
        "request pump and sim timers dominate; protocol nearly idle",
        lambda seed: RunSpec("kvstore",
                             dict(_STORE, requests=20_000,
                                  rate_rps=10_000.0,
                                  read_fraction=0.9),
                             protocol="lh", config=_atm(8, seed)),
        serving=True),
    Workload(
        "serve_write_lossy", 5,
        "open-loop service, 10k requests at 2.5k rps, half writes, "
        "2% drop 1% dup 1% reorder: the only workload where "
        "transport and faults run; every put is a lock transfer "
        "plus diff through retransmission",
        lambda seed: RunSpec("kvstore",
                             dict(_STORE, requests=10_000,
                                  rate_rps=2_500.0,
                                  read_fraction=0.5),
                             protocol="lh",
                             config=_atm(8, seed, faults=_LOSSY)),
        serving=True),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
