"""Seeded open-loop load generator for the serving workload.

Produces a deterministic request schedule from four independent
substreams of the machine seed (:func:`repro.core.rng.substream`), so
the same ``(seed, parameters)`` pair yields byte-identical schedules
in every process — the lab's cache keys and the cross-process
determinism property test both depend on that.

Model:

- **key popularity** — Zipfian with exponent ``s`` over ``nkeys``
  keys (``s = 0`` degenerates to uniform).  Sampling is inverse-CDF
  via :func:`bisect`, so one uniform draw per request.
- **arrivals** — open loop: request *i* arrives at a scheduled
  simulated time whether or not request *i-1* has finished.  Poisson
  (exponential inter-arrival, the memoryless default) or fixed-rate
  (exact ``1/rate`` spacing, for worst-case-free baselines).
- **clients** — ``nclients`` logical clients (millions are fine; a
  client is just an id) multiplexed onto the node processes by
  ``client mod nprocs``, which fixes each request's serving node.
- **read/write mix** — each request is a ``get`` with probability
  ``read_fraction``, else a ``put``.
"""

from __future__ import annotations

from bisect import bisect_left
from math import log
from typing import Dict, List, NamedTuple, Sequence

from repro.core.rng import substream

#: Supported inter-arrival processes.
ARRIVAL_MODES = ("poisson", "fixed")


class Request(NamedTuple):
    """One client request, scheduled before the simulation starts
    (an immutable named tuple: a schedule holds tens of thousands)."""

    req_id: int       # global arrival order (ties broken by id)
    client: int       # logical client; client % nprocs = serving node
    key: int          # key index in [0, nkeys)
    op: str           # "get" | "put"
    arrival_us: float  # scheduled arrival, microseconds of sim time


def validate_workload(rate_rps: float, read_fraction: float,
                      zipf_s: float, nkeys: int = 1,
                      requests: int = 1, nclients: int = 1,
                      arrival: str = "poisson") -> None:
    """Reject nonsense parameters with actionable messages (the CLI
    validators reuse these bounds)."""
    if not rate_rps > 0:
        raise ValueError(
            f"arrival rate must be > 0 requests/s, got {rate_rps}")
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError(
            f"read fraction must be within [0, 1], got "
            f"{read_fraction}")
    if zipf_s < 0:
        raise ValueError(
            f"Zipf exponent must be >= 0, got {zipf_s}")
    if nkeys < 1:
        raise ValueError(f"need at least one key, got {nkeys}")
    if requests < 1:
        raise ValueError(
            f"need at least one request, got {requests}")
    if nclients < 1:
        raise ValueError(
            f"need at least one client, got {nclients}")
    if arrival not in ARRIVAL_MODES:
        raise ValueError(
            f"unknown arrival mode {arrival!r}; choose from "
            f"{list(ARRIVAL_MODES)}")


def zipf_cdf(nkeys: int, s: float) -> List[float]:
    """Cumulative (unnormalised) Zipf weights: entry ``k`` is
    ``sum(1/(i+1)^s for i <= k)``.  Key 0 is the hottest."""
    cdf: List[float] = []
    total = 0.0
    for rank in range(1, nkeys + 1):
        total += rank ** -s
        cdf.append(total)
    return cdf


def generate_requests(nkeys: int, requests: int, rate_rps: float,
                      read_fraction: float, zipf_s: float,
                      nclients: int, arrival: str,
                      seed: int) -> List[Request]:
    """The full schedule, ascending by arrival time.

    Four substreams (``serve.arrivals`` / ``serve.keys`` /
    ``serve.ops`` / ``serve.clients``) keep the dimensions
    independent: changing the read mix does not perturb which keys
    are hot or when requests land.
    """
    validate_workload(rate_rps, read_fraction, zipf_s, nkeys=nkeys,
                      requests=requests, nclients=nclients,
                      arrival=arrival)
    # One bound draw method per substream; each request makes exactly
    # one draw from each, in the same order as the model above.
    arrival_draw = substream(seed, "serve.arrivals").random
    key_draw = substream(seed, "serve.keys").random
    op_draw = substream(seed, "serve.ops").random
    client_draw = substream(seed, "serve.clients").randrange
    cdf = zipf_cdf(nkeys, zipf_s)
    cdf_total = cdf[-1]
    mean_gap_us = 1e6 / rate_rps
    lambd = 1.0 / mean_gap_us
    poisson = arrival == "poisson"
    clock_us = 0.0
    out: List[Request] = []
    append = out.append
    for req_id in range(requests):
        if poisson:
            # Random.expovariate(lambd)'s own expression.
            clock_us += -log(1.0 - arrival_draw()) / lambd
        else:
            clock_us = req_id * mean_gap_us
        key = bisect_left(cdf, key_draw() * cdf_total)
        op = "get" if op_draw() < read_fraction else "put"
        append(Request(req_id, client_draw(nclients), key, op,
                       clock_us))
    return out


def node_schedules(schedule: Sequence[Request],
                   nprocs: int) -> List[List[Request]]:
    """Split the global schedule into per-node streams (a client's
    requests always land on ``client % nprocs``), preserving arrival
    order within each node."""
    per_node: List[List[Request]] = [[] for _ in range(nprocs)]
    for request in schedule:
        per_node[request.client % nprocs].append(request)
    return per_node


def write_counts(schedule: Sequence[Request],
                 nkeys: int) -> List[int]:
    """Expected number of ``put`` requests per key — the oracle the
    kvstore verifies its counters against."""
    counts = [0] * nkeys
    for request in schedule:
        if request.op == "put":
            counts[request.key] += 1
    return counts


#: Scaled parameter sets for the serving app, mirroring
#: ``repro.analysis.experiments.APP_PARAMS`` but kept separate so the
#: paper-reproduction report never iterates the serving workload.
SERVE_APP_PARAMS: Dict[str, Dict[str, object]] = {
    "small": dict(nkeys=32, value_words=8, shards=4, requests=120,
                  rate_rps=40_000.0, read_fraction=0.9, zipf_s=0.99,
                  nclients=1_000_000),
    "bench": dict(nkeys=64, value_words=16, shards=8, requests=400,
                  rate_rps=40_000.0, read_fraction=0.9, zipf_s=0.99,
                  nclients=1_000_000),
    "large": dict(nkeys=256, value_words=32, shards=16,
                  requests=2_000, rate_rps=40_000.0,
                  read_fraction=0.9, zipf_s=0.99,
                  nclients=4_000_000),
}
