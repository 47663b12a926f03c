"""The simulated DSM machine: nodes + network + shared address space."""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional, Sequence

import numpy as np

from repro.core.api import DsmApi
from repro.core.config import MachineConfig
from repro.core.metrics import RunResult
from repro.core.node import Node
from repro.mem.addressing import AddressSpace, Segment
from repro.net import build_network
from repro.net.message import Message, restart_message_ids
from repro.obs import Observability
from repro.sim.engine import (SimulationError, Simulator,
                              unfinished_reason)
from repro.sim.events import Event


class Machine:
    """A cluster of ``nprocs`` nodes running one DSM protocol.

    Typical use (:func:`repro.core.runner.run_app` wraps this):

    >>> machine = Machine(MachineConfig(nprocs=4), protocol="lh")
    >>> seg = machine.allocate("data", nwords=1024)
    >>> machine.run(worker_factory)   # doctest: +SKIP
    """

    def __init__(self, config: MachineConfig, protocol: str = "lh",
                 protocol_options: Optional[dict] = None,
                 lock_broadcast: bool = False,
                 obs: Optional[Observability] = None,
                 sampler=None) -> None:
        from repro.protocols.registry import create_protocol
        from repro.sync.barriers import BarrierManager
        from repro.sync.locks import LockManager

        self.config = config
        self.protocol_name = protocol
        self.lock_broadcast = lock_broadcast
        restart_message_ids()
        self.sim = Simulator()
        # Observability: registry + tracer threaded through every
        # layer (sim, net, nodes, protocols, sync).  Callers may pass
        # their own context (e.g. with a JSONL trace sink attached).
        self.obs = obs if obs is not None else Observability()
        self.obs.bind_clock(lambda: self.sim.now)
        self.obs.registry.const_labels.update({
            "protocol": protocol,
            "network": config.network.kind,
            "nprocs": str(config.nprocs),
        })
        self.sim.attach_obs(self.obs)
        # Windowed telemetry (docs/observability.md): a
        # TimeseriesSampler rides along as a side channel like the
        # tracer — read-only, schedules nothing, and absent by default
        # (the dispatch loop's window boundary is then ``inf``).
        self.sampler = sampler
        if sampler is not None:
            sampler.bind(self)
        self.network = build_network(self.sim, config)
        # Robustness layer (docs/robustness.md): with any fault
        # configured, the network gets a seeded injector and node
        # traffic is routed through the reliable transport; otherwise
        # both are skipped entirely so fault-free runs stay
        # bit-for-bit identical to a build without the subsystem.
        self.faults = None
        self.transport = None
        self.lifecycle = None
        if config.faults.enabled:
            from repro.faults import FaultInjector
            self.faults = FaultInjector(config, obs=self.obs)
            self.network.attach_faults(self.faults)
        if config.faults.enabled or config.transport.force:
            from repro.net.transport import ReliableTransport
            self.transport = ReliableTransport(
                self.sim, config, self.network, self._deliver,
                obs=self.obs, tracer=self.obs.tracer)
            self.network.attach(self.transport.on_network_delivery)
        #: Node send entry point, bound once: the reliable transport
        #: when the robustness layer is on, the raw network otherwise.
        #: Nodes read this attribute per send, so assigning a wrapper
        #: to it taps every message.
        self.transmit: Callable[[Message], object] = (
            self.transport.send if self.transport is not None
            else self.network.transmit)
        self.network.attach_obs(self.obs)
        self.address_space = AddressSpace(config.words_per_page)
        self._page_owner_override: Dict[int, int] = {}
        # Entry-consistency annotations (bind_lock): lock -> pages.
        self.lock_bindings: Dict[int, set] = {}

        self.nodes: List[Node] = [Node(self, p)
                                  for p in range(config.nprocs)]
        for node in self.nodes:
            node.protocol = create_protocol(protocol, node,
                                            protocol_options)
            node.lock_manager = LockManager(node,
                                            broadcast=lock_broadcast)
            node.barrier_manager = BarrierManager(node)
            node.bind_handlers()
        if self.transport is None:
            # No layer in between: the network schedules each node's
            # deliver directly.
            self.network.attach_nodes(
                [node.deliver for node in self.nodes])

        if self.faults is not None:
            self.faults.install_stalls(self)
        if self.faults is not None and config.faults.crash_enabled:
            from repro.sim.lifecycle import NodeLifecycleManager
            self.lifecycle = NodeLifecycleManager(
                self, self.faults, self.transport, self.obs)
            self.transport.lifecycle = self.lifecycle
            # Re-attach delivery with the NIC gate in front: packets
            # to a down node die here, before transport accounting.
            self.network.attach(
                self.lifecycle.gate(self.transport.on_network_delivery))
            self.lifecycle.install()

        self._node_procs: Dict[int, List] = {}
        self._finished: List[Optional[float]] = [None] * config.nprocs
        self._app_results: List[object] = [None] * config.nprocs
        self._unfinished = config.nprocs
        # Completion flag for run(): replaced per run; run_until reads
        # its .triggered attribute instead of calling a stop predicate
        # once per dispatched event.
        self._done: Optional[Event] = None

    # -- address space ------------------------------------------------------

    def allocate(self, name: str, nwords: int,
                 init: Optional[np.ndarray] = None,
                 owner: str = "striped") -> Segment:
        """Allocate a shared segment and install its pages at their
        statically-assigned owners (cost-free initialization, standing
        in for the program's pre-parallel setup phase).

        ``owner`` is ``"striped"`` (pages round-robin across nodes),
        ``"block"`` (contiguous chunks), or an integer processor id.
        """
        segment = self.address_space.allocate(name, nwords)
        pages = list(segment.pages)
        if owner == "striped":
            assignment = {page: page % self.config.nprocs
                          for page in pages}
        elif owner == "block":
            per_node = -(-len(pages) // self.config.nprocs)
            assignment = {page: min(i // per_node,
                                    self.config.nprocs - 1)
                          for i, page in enumerate(pages)}
        elif isinstance(owner, int):
            if not 0 <= owner < self.config.nprocs:
                raise ValueError(f"owner {owner} out of range")
            assignment = {page: owner for page in pages}
        else:
            raise ValueError(f"bad owner spec: {owner!r}")
        self._page_owner_override.update(assignment)

        words_per_page = self.config.words_per_page
        if init is not None:
            init = np.asarray(init, dtype=np.float64)
            if len(init) != nwords:
                raise ValueError("init length must equal nwords")
        for page in pages:
            owner_node = self.nodes[assignment[page]]
            copy = owner_node.pagetable.install(page, valid=True)
            if init is not None:
                start = page * words_per_page - segment.base_word
                chunk = init[max(start, 0):start + words_per_page]
                copy.values[:len(chunk)] = chunk
            # Every node's copyset for a page always contains the owner
            # (the owner doubles as the page's directory).
            for node in self.nodes:
                node.copysets.add(page, assignment[page])
        return segment

    def page_owner(self, page: int) -> int:
        try:
            return self._page_owner_override[page]
        except KeyError:
            raise SimulationError(f"page {page} was never allocated")

    # -- locks / barriers -----------------------------------------------------

    def lock_owner(self, lock_id: int) -> int:
        return lock_id % self.config.nprocs

    def bind_lock(self, lock_id: int, segment: Segment,
                  start: Optional[int] = None,
                  end: Optional[int] = None) -> None:
        """Entry-consistency annotation (Midway-style): declare that
        ``segment[start:end)`` is the shared data guarded by
        ``lock_id``.  The 'ec' protocol moves exactly the bound pages'
        modifications with the lock grant; other protocols ignore
        bindings."""
        start = 0 if start is None else start
        end = segment.nwords if end is None else end
        pages = {page for page, _lo, _hi
                 in segment.page_ranges(start, end)}
        self.lock_bindings.setdefault(lock_id, set()).update(pages)

    def pages_bound_to(self, lock_id: int) -> frozenset:
        return frozenset(self.lock_bindings.get(lock_id, ()))

    def barrier_master(self, barrier_id: int) -> int:
        return barrier_id % self.config.nprocs

    # -- message delivery ------------------------------------------------------

    def _deliver(self, message: Message) -> None:
        """The reliable transport's upcall (the raw network delivers
        to the nodes directly)."""
        self.nodes[message.dst].deliver(message)

    # -- execution ---------------------------------------------------------------

    def node_processes(self, proc: int):
        """The processes running on node ``proc``: its workers and the
        protocol work it runs beside them (:meth:`adopt`).  The
        lifecycle manager freezes these across a crash."""
        return self._node_procs.get(proc, ())

    def adopt(self, proc: int, process) -> None:
        """Run ``process`` as part of node ``proc``: a crash of the
        node freezes it with the workers.  Only a crash plan looks, so
        a run without one keeps no list of finished processes."""
        if self.lifecycle is not None:
            self._node_procs[proc].append(process)

    def run(self, worker_factory: Callable[..., Generator],
            max_events: Optional[int] = None,
            app: str = "app",
            threads_per_proc: int = 1) -> RunResult:
        """Run one application: ``worker_factory(proc)`` must return
        the generator to execute on each node.  With
        ``threads_per_proc > 1`` (the paper's multithreading
        extension), the factory is called as ``worker_factory(proc,
        thread)`` and each node runs that many threads, serializing
        computation but overlapping communication stalls.  Returns the
        aggregated :class:`RunResult` (``app_result`` is indexed
        ``proc * threads + thread``).

        A run whose crash plan holds a crash-stop (a crash with no
        recovery) cannot drain: peers probe the dead node at the
        capped RTO forever.  It runs under an event budget (5,000,000
        unless ``max_events`` says otherwise) and, if workers are left
        unfinished, returns a *partial* result: elapsed is the time
        reached, an unfinished node's finish time is 0.0 and a dead
        worker's ``app_result`` None.  Any other unfinished run raises
        :class:`SimulationError` with the reason."""
        if threads_per_proc < 1:
            raise ValueError("threads_per_proc must be >= 1")
        self.obs.registry.const_labels["app"] = app
        nworkers = self.config.nprocs * threads_per_proc
        self._finished = [None] * nworkers
        self._app_results = [None] * nworkers
        self._unfinished = nworkers
        self._node_procs = {p: [] for p in range(self.config.nprocs)}
        if threads_per_proc > 1:
            for node in self.nodes:
                node.enable_multithreading()
            workers = [(proc, thread)
                       for proc in range(self.config.nprocs)
                       for thread in range(threads_per_proc)]
            for proc, thread in workers:
                generator = worker_factory(proc, thread)
                process = self.sim.spawn(
                    self._wrap_worker(proc * threads_per_proc + thread,
                                      generator),
                    name=f"worker-{proc}.{thread}")
                self._node_procs[proc].append(process)
        else:
            for proc in range(self.config.nprocs):
                process = self.sim.spawn(
                    self._wrap_worker(proc, worker_factory(proc)),
                    name=f"worker-{proc}")
                self._node_procs[proc].append(process)
        self._done = self.sim.event("all-workers-done")
        crash_stop = self.lifecycle is not None and any(
            ev.down_us is None for ev in self.lifecycle.plan)
        if crash_stop and max_events is None:
            max_events = 5_000_000
        self.sim.run_until(self._done, max_events=max_events)
        if self.sampler is not None:
            self.sampler.finish(self.sim.now)
        if self._unfinished == 0:
            elapsed = max(self._finished)
        elif crash_stop:
            elapsed = self.sim.now
        else:
            unfinished = [i for i, t in enumerate(self._finished)
                          if t is None]
            raise SimulationError(
                f"workers {unfinished} did not finish: "
                + unfinished_reason(self.sim, "those workers",
                                    max_events))
        finish_times = []
        for proc in range(self.config.nprocs):
            times = self._finished[proc * threads_per_proc:
                                   (proc + 1) * threads_per_proc]
            finish_times.append(0.0 if None in times else max(times))
        return RunResult(
            app=app,
            protocol=self.protocol_name,
            nprocs=self.config.nprocs,
            elapsed_cycles=elapsed,
            finish_times=finish_times,
            app_result=list(self._app_results),
            registry=self.obs.registry,
        )

    def api(self, proc: int) -> DsmApi:
        """The API a worker on node ``proc`` programs against (one per
        worker; a recording machine hands out a wrapped one)."""
        return DsmApi(self.nodes[proc])

    def run_app(self, app, max_events: Optional[int] = None,
                threads_per_proc: int = 1) -> RunResult:
        """Run ``app`` on this machine: the one place the application
        contract (:mod:`repro.apps.base`) is sequenced.  ``app.setup``
        allocates the shared segments, every node runs ``app.worker``
        — or, with ``threads_per_proc > 1`` (the multithreading
        extension, paper section 8), that many ``app.worker_thread``
        generators — and ``app.finish`` checks the answer against the
        sequential oracle.  A partial (crash-stop) run has no answer to
        check, so ``finish`` is skipped for it."""
        body = app.worker if threads_per_proc == 1 else app.worker_thread
        shared = app.setup(self)

        def worker(proc: int, *thread: int):
            # ``run`` calls worker(proc) or worker(proc, thread).
            return body(self.api(proc), proc, *thread, shared)

        result = self.run(worker, max_events=max_events, app=app.name,
                          threads_per_proc=threads_per_proc)
        if self._unfinished == 0:
            app.finish(self, shared, result)
        return result

    def _wrap_worker(self, proc: int,
                     worker: Generator) -> Generator:
        result = yield from worker
        if self._finished[proc] is None:
            self._unfinished -= 1
            if self._unfinished == 0 and self._done is not None:
                self._done.succeed()
        self._finished[proc] = self.sim.now
        self._app_results[proc] = result
