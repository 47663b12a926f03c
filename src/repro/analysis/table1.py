"""Table 1: message costs of the shared-memory operations.

The paper gives closed-form message counts per operation:

===  ===========  =======  ========  =========================
 .   Access miss   Lock     Unlock    Barrier
LH   2m            3        0         2(n-1) + u
LI   2m            3        0         2(n-1)
LU   2m            3 + 2h   0         2(n-1) + 2u
EI   2 or 3        3        2c        2(n-1) + v
EU   2             3        2c        2(n-1) + 2u
===  ===========  =======  ========  =========================

m = concurrent last modifiers of the missing page, h = other
concurrent last modifiers of any locally cached page, c = other
cachers of the modified pages, n = processors, u/v = per-cacher update
and merge messages at barriers.

This module builds micro-scenarios that isolate each operation and
counts the actual messages the simulator exchanges, so the accounting
can be checked mechanically.  One deviation is expected: our EI serves
misses from the page's never-invalid home in exactly 2 messages (the
paper's "2 or 3" covers its owner-forwarding variant), and EI's unlock
adds one diff-to-home message pair when the releaser is not the home.
"""

from __future__ import annotations

from typing import Dict

from repro.core.api import DsmApi
from repro.core.config import MachineConfig, NetworkConfig
from repro.core.machine import Machine


def _machine(protocol: str, nprocs: int = 4) -> Machine:
    config = MachineConfig(nprocs=nprocs,
                           network=NetworkConfig.ideal())
    return Machine(config, protocol=protocol)


def _run(machine: Machine, worker) -> None:
    machine.run(lambda p: worker(DsmApi(machine.nodes[p]), p))


def _net_messages(machine: Machine) -> int:
    """Current network message count, read from the metrics registry
    (see docs/observability.md: ``net.messages_total``)."""
    return int(machine.obs.registry.total("net.messages_total"))


def _messages_between(machine: Machine, start: int) -> int:
    return _net_messages(machine) - start


def measure_access_miss(protocol: str, modifiers: int = 1) -> int:
    """Messages for one access miss with ``modifiers`` concurrent last
    modifiers of the page (the page is written by that many processors
    under different locks, then read cold by the last processor)."""
    nprocs = modifiers + 2
    machine = _machine(protocol, nprocs=nprocs)
    seg = machine.allocate("page", 64, owner=nprocs - 2)
    counter = {"miss_messages": 0}

    def worker(api, proc):
        if proc < modifiers:
            # Each modifier writes its own word under its own lock.
            yield from api.acquire(proc)
            yield from api.write(seg, proc, float(proc + 1))
            yield from api.release(proc)
        yield from api.barrier(0)
        if proc == nprocs - 1:
            # Let other nodes' departure-time traffic drain first so
            # the window only sees this miss.
            yield from api.compute(1_000_000)
            start = _net_messages(machine)
            yield from api.read(seg, 0)
            counter["miss_messages"] = _messages_between(machine, start)
        else:
            # Stay quiet so the window only sees the miss traffic.
            yield from api.compute(10_000_000)
        yield from api.barrier(1)

    _run(machine, worker)
    return counter["miss_messages"]


def measure_lock_transfer(protocol: str) -> int:
    """Messages for a lock acquisition whose token rests at a third
    node: request -> owner -> holder -> grant (paper: 3)."""
    machine = _machine(protocol, nprocs=4)
    machine.allocate("dummy", 16)
    counter = {"messages": 0}
    # Lock 1 is owned by proc 1; proc 2 takes it first, then proc 3
    # requests it: REQ(3->1), FWD(1->2), GRANT(2->3).

    def worker(api, proc):
        if proc == 2:
            yield from api.acquire(1)
            yield from api.release(1)
        yield from api.barrier(0)
        if proc == 3:
            start = _net_messages(machine)
            yield from api.acquire(1)
            counter["messages"] = _messages_between(machine, start)
            yield from api.release(1)
        else:
            yield from api.compute(10_000_000)
        yield from api.barrier(1)

    _run(machine, worker)
    return counter["messages"]


def measure_unlock(protocol: str, cachers: int = 2) -> int:
    """Messages triggered by a release after writing a page that
    ``cachers`` other processors cache (eager: 2c; lazy: 0)."""
    nprocs = cachers + 1
    machine = _machine(protocol, nprocs=nprocs)
    seg = machine.allocate("page", 64, owner=0)
    counter = {"messages": 0}

    def worker(api, proc):
        yield from api.read(seg, 0)  # everyone caches the page
        yield from api.barrier(0)
        if proc == 0:
            yield from api.acquire(0)  # owned locally: no messages
            yield from api.write(seg, 1, 42.0)
            start = _net_messages(machine)
            yield from api.release(0)
            counter["messages"] = _messages_between(machine, start)
        else:
            yield from api.compute(10_000_000)
        yield from api.barrier(1)

    _run(machine, worker)
    return counter["messages"]


def measure_barrier(protocol: str, nprocs: int = 4,
                    dirty: bool = False) -> Dict[str, int]:
    """Message counts, by purpose, for one barrier episode; with
    ``dirty`` each processor has modified its own page that one
    neighbour caches (exposing the update-push terms u / 2u and EI's
    merge term v).  Counted as the per-episode delta between a run
    with two barriers and one with a single barrier."""

    def total_by_kind(nbarriers: int) -> Dict[str, int]:
        machine = _machine(protocol, nprocs=nprocs)
        words = machine.config.words_per_page
        seg = machine.allocate("pages", words * nprocs, owner="striped")

        def worker(api, proc):
            if dirty:
                neighbour = (proc + 1) % nprocs
                yield from api.read(seg, neighbour * words)
                yield from api.write(seg, proc * words + 1,
                                     float(proc + 1))
            for barrier_id in range(nbarriers):
                yield from api.barrier(barrier_id)
                if dirty and barrier_id + 1 < nbarriers:
                    yield from api.write(seg, proc * words + 1,
                                         float(proc + 10))

        def factory(p):
            return worker(DsmApi(machine.nodes[p]), p)
        result = machine.run(factory)
        # Per-kind counts from the metrics registry; keys are the
        # ``msg_type`` label values of ``dsm.messages_total``.
        by_type = result.registry.by_label("dsm.messages_total",
                                           "msg_type")
        return {kind: int(count) for kind, count in by_type.items()}

    two = total_by_kind(2)
    one = total_by_kind(1)
    delta = {kind: two.get(kind, 0) - one.get(kind, 0)
             for kind in set(two) | set(one)
             if two.get(kind, 0) != one.get(kind, 0)}
    delta["total"] = sum(v for k, v in delta.items() if k != "total")
    delta["sync"] = (two.get("barrier_arrive", 0)
                     - one.get("barrier_arrive", 0)
                     + two.get("barrier_depart", 0)
                     - one.get("barrier_depart", 0))
    return delta


#: Expected counts for the micro-scenarios above, derived from Table 1.
EXPECTED = {
    "access_miss_m1": {"lh": 2, "li": 2, "lu": 2, "ei": 2, "eu": 2},
    "access_miss_m2": {"lh": 4, "li": 4, "lu": 4},
    "lock_transfer": {"lh": 3, "li": 3, "lu": 3, "ei": 3, "eu": 3},
    # c = 2 other cachers -> eager 2c = 4; EI adds a diff-to-home
    # message pair when the releaser is not the home (here it is the
    # home, so 4 as well); lazy protocols release for free.
    "unlock_c2": {"lh": 0, "li": 0, "lu": 0, "ei": 4, "eu": 4},
    # clean barrier: 2(n-1)
    "barrier_clean_n4": {"lh": 6, "li": 6, "lu": 6, "ei": 6, "eu": 6},
}


def run_table1() -> Dict[str, Dict[str, int]]:
    """Measure every scenario for every protocol.

    The micro-scenarios close over live :class:`Machine` objects and
    take ~40 ms in total, so they are computed directly: nothing here
    crosses a process boundary or touches the lab cache."""
    protocols = ["lh", "li", "lu", "ei", "eu"]
    return {
        "access_miss_m1": {p: measure_access_miss(p, 1)
                           for p in protocols},
        "access_miss_m2": {p: measure_access_miss(p, 2)
                           for p in ("lh", "li", "lu")},
        "lock_transfer": {p: measure_lock_transfer(p)
                          for p in protocols},
        "unlock_c2": {p: measure_unlock(p, 2) for p in protocols},
        "barrier_clean_n4": {p: measure_barrier(p, 4, dirty=False)
                             for p in protocols},
        "barrier_dirty_n4": {p: measure_barrier(p, 4, dirty=True)
                             for p in protocols},
    }
