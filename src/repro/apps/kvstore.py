"""Sharded key-value store served out of the simulated DSM.

The store is an ordinary shared segment: ``value_words`` words per
key, keys block-partitioned into ``shards``, one lock per shard.  A
``put`` takes its shard lock, bumps the key's write counter (word 0
of the value), rewrites the payload words, and releases — so under
LI/LU/LH it pays lock transfer plus diff traffic, under EI/SC it pays
invalidations, exactly like the paper's kernels.  A ``get`` reads the
value unsynchronized, the same deliberately-stale idiom TSP uses for
its global minimum (paper section 6.2): protocol choice decides how
stale, and how expensive, those reads are.

Verification is order-independent: the counter at each key must equal
the number of ``put`` requests the schedule aimed at it (payload
bytes are exercised but not checked — concurrent last-write-wins
payloads are legitimately protocol-dependent).  The epilogue reads
the counters *under the shard locks* on one node, which doubles as
the entry-consistency ('ec') path for fetching bound pages.
"""

from __future__ import annotations

from typing import Generator, List

from repro.apps.base import EventDrivenApplication, block_range
from repro.core.api import DsmApi
from repro.core.machine import Machine
from repro.core.metrics import RunResult
from repro.obs import SERVE_CATALOG, install
from repro.serve.workload import (generate_requests, node_schedules,
                                  write_counts)

#: Compute charged per request before any DSM work (request parsing,
#: hashing — the non-shared part of service time).
DEFAULT_CYCLES_PER_REQUEST = 400.0


class KvStore(EventDrivenApplication):
    """DSM-backed key-value serving workload (open loop)."""

    name = "kvstore"

    def __init__(self, nkeys: int = 64, value_words: int = 16,
                 shards: int = 8, requests: int = 400,
                 rate_rps: float = 40_000.0,
                 read_fraction: float = 0.9, zipf_s: float = 0.99,
                 nclients: int = 1_000_000,
                 arrival: str = "poisson",
                 cycles_per_request: float =
                 DEFAULT_CYCLES_PER_REQUEST) -> None:
        self.nkeys = int(nkeys)
        self.value_words = int(value_words)
        self.shards = max(1, min(int(shards), self.nkeys))
        self.requests = int(requests)
        self.rate_rps = float(rate_rps)
        self.read_fraction = float(read_fraction)
        self.zipf_s = float(zipf_s)
        self.nclients = int(nclients)
        self.arrival = arrival
        self.cycles_per_request = float(cycles_per_request)

    def _shard_of(self, key: int) -> int:
        per = -(-self.nkeys // self.shards)
        return key // per

    def setup(self, machine: Machine):
        # Serve metrics are opt-in (SERVE_CATALOG): installing here
        # keeps the four paper kernels' dumps byte-identical.
        install(machine.obs.registry, SERVE_CATALOG)
        store = machine.allocate(
            "kvstore", self.nkeys * self.value_words, owner="block")
        for shard in range(self.shards):
            keys = block_range(self.nkeys, self.shards, shard)
            machine.bind_lock(shard, store,
                              keys.start * self.value_words,
                              keys.stop * self.value_words)
        schedule = generate_requests(
            nkeys=self.nkeys, requests=self.requests,
            rate_rps=self.rate_rps,
            read_fraction=self.read_fraction, zipf_s=self.zipf_s,
            nclients=self.nclients, arrival=self.arrival,
            seed=machine.config.seed)
        return {
            "store": store,
            "schedules": node_schedules(schedule,
                                        machine.config.nprocs),
            "expected": write_counts(schedule, self.nkeys),
            "observed": None,
        }

    def schedule(self, proc: int, shared):
        return shared["schedules"][proc]

    def handle_request(self, api: DsmApi, proc: int, shared,
                       request) -> Generator:
        store = shared["store"]
        base = request.key * self.value_words
        yield from api.compute(self.cycles_per_request)
        if request.op == "put":
            shard = self._shard_of(request.key)
            yield from api.acquire(shard)
            count = yield from api.read(store, base)
            yield from api.write(store, base, count + 1.0)
            if self.value_words > 1:
                yield from api.write_region(
                    store, base + 1, base + self.value_words,
                    float(request.req_id + 1))
            yield from api.release(shard)
        else:
            # Unsynchronized read: fine for a cache-style get, and
            # exactly how protocol staleness becomes visible.
            yield from api.read_region(store, base,
                                       base + self.value_words)

    def epilogue(self, api: DsmApi, proc: int, shared) -> Generator:
        yield from api.barrier(0)
        if proc != 0:
            return
        store = shared["store"]
        observed: List[int] = []
        for shard in range(self.shards):
            keys = block_range(self.nkeys, self.shards, shard)
            yield from api.acquire(shard)
            for key in keys:
                count = yield from api.read(
                    store, key * self.value_words)
                observed.append(int(count))
            yield from api.release(shard)
        shared["observed"] = observed

    def finish(self, machine: Machine, shared,
               result: RunResult) -> None:
        observed = shared["observed"]
        expected = shared["expected"]
        if observed != expected:
            bad = [(key, got, want) for key, (got, want)
                   in enumerate(zip(observed or [], expected))
                   if got != want]
            raise AssertionError(
                f"kvstore write counters diverged from the schedule "
                f"(key, got, want): {bad[:8]}")
