"""Application framework.

An :class:`Application` bundles everything one benchmark program needs:
segment allocation (``setup``), the per-processor generator
(``worker``), and post-run verification (``finish``).  Applications do
*real* computation on the values stored in the simulated DSM, so a
protocol bug shows up as a wrong answer, not just odd timing.

Per-application compute-cost constants are calibrated so that the
cycles between off-node synchronization operations land near the grain
sizes the paper reports for 16 processors (Jacobi ~324K, TSP ~189K,
Water ~19K, Cholesky ~4K cycles).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Generator, Optional

from repro.core.api import DsmApi
from repro.core.machine import Machine
from repro.core.metrics import RunResult


class Application(ABC):
    """One runnable workload."""

    name = "app"

    @abstractmethod
    def setup(self, machine: Machine):
        """Allocate shared segments; returns the shared-state handle
        passed to every worker."""

    @abstractmethod
    def worker(self, api: DsmApi, proc: int, shared) -> Generator:
        """The program one processor runs (a generator)."""

    def finish(self, machine: Machine, shared,
               result: RunResult) -> None:
        """Hook for post-run checks; default does nothing."""


class EventDrivenApplication(Application):
    """A workload driven by timed request arrivals, not loops.

    The paper's kernels own the clock: they compute until done.  A
    *service* does not — requests arrive at scheduled simulated times
    (open loop: arrivals never wait for completions), so the worker
    here is a pump, written once: sleep until the next scheduled
    arrival, serve it through the DSM, account its latency against
    the *scheduled* time so queueing delay is charged to the tail.

    Subclasses implement :meth:`schedule` (the per-node request list,
    ascending by arrival) and :meth:`handle_request` (a generator:
    the DSM work one request does).  The existing loop-structured
    apps are untouched — this is a sibling, not a rewrite, which is
    what keeps the 18 golden dumps byte-identical.
    """

    #: Serve metrics (serve.*) are bound lazily per worker; apps that
    #: never install the catalogue simply skip emission.
    @abstractmethod
    def schedule(self, proc: int, shared):
        """This node's requests, ascending by ``arrival_us``.  Each
        entry needs ``req_id``/``key``/``op``/``arrival_us``
        attributes (:class:`repro.serve.workload.Request`)."""

    @abstractmethod
    def handle_request(self, api: DsmApi, proc: int, shared,
                       request) -> Generator:
        """Serve one request through the DSM (a generator)."""

    def epilogue(self, api: DsmApi, proc: int, shared) -> Generator:
        """Runs after this node's last request (default: nothing).
        Use it for verification reads that must see peers' writes."""
        return
        yield  # pragma: no cover - makes this a generator

    def worker(self, api: DsmApi, proc: int, shared) -> Generator:
        """The pump: wait for each arrival, serve it, account it."""
        node = api._node
        # Per-run invariants, read once rather than per request.
        sim = node.sim
        tracer = node.tracer
        cycles_per_second = node.config.cycles_per_second
        registry = node.machine.obs.registry
        if "serve.requests_total" in registry:
            requests_total = registry.get("serve.requests_total")
            latency_hist = registry.get(
                "serve.request_latency_cycles").labels()
            queue_hist = registry.get(
                "serve.queue_wait_cycles").labels()
        else:
            requests_total = latency_hist = queue_hist = None
        # op -> bound requests_total child, resolved on the op's first
        # request (an op that never occurs gets no series).
        op_counters = {}
        records = []
        for request in self.schedule(proc, shared):
            # MachineConfig.us_to_cycles, in its operation order.
            arrival = request.arrival_us * 1e-6 * cycles_per_second
            started = sim.now
            if arrival > started:
                yield arrival - started
                started = sim.now
            if tracer.sink.enabled:
                tracer.emit("req.arrive", req=request.req_id,
                            node=proc, key=request.key,
                            op=request.op, arrival=arrival)
            yield from self.handle_request(api, proc, shared, request)
            done = sim.now
            latency = done - arrival
            if tracer.sink.enabled:
                tracer.emit("req.done", req=request.req_id,
                            node=proc, key=request.key,
                            op=request.op, latency_cycles=latency)
            if requests_total is not None:
                counter = op_counters.get(request.op)
                if counter is None:
                    counter = op_counters[request.op] = \
                        requests_total.labels(op=request.op)
                counter.inc()
                latency_hist.observe(latency)
                queue_hist.observe(started - arrival)
            records.append([request.req_id, request.key,
                            1 if request.op == "put" else 0,
                            arrival, started, done])
        yield from self.epilogue(api, proc, shared)
        return {"proc": proc, "requests": records}


def block_range(total: int, nprocs: int, proc: int) -> range:
    """Contiguous block partition of ``range(total)`` (last block may
    be short)."""
    per = -(-total // nprocs)
    lo = min(proc * per, total)
    hi = min(lo + per, total)
    return range(lo, hi)
