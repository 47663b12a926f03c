"""A notice's place in the causal cone is one clock component.

Every clock the simulator holds is a processor's clock or a
componentwise max or min of such clocks.  For those clocks
(Fidge/Mattern) a clock ``V`` dominates the vector time ``vc(q, i)``
of interval ``(q, i)`` exactly when ``V[q] >= i``.  The lazy due test,
the cold-miss filter, ``concurrent_last_modifiers``,
``_assign_wanted`` and the barrier push's peer knowledge read that one
component.  This file tests the precondition they rest on:

- over generated seal/send/deliver histories of 2-8 processors, for
  every clock a processor holds and every componentwise min of two of
  them;
- in real runs, after every barrier departure and at the end of the
  run, for each node's clock against every record in its log (which
  holds every notice a cold miss reads) and every pending notice, and
  for the log holding every interval the clock covers (the cone the
  due test trusts is complete, and a clock names no interval nobody
  sealed): seven protocols, four applications, ATM and Ethernet, each
  clean, lossy, across a crash outage, at two threads per node
  (Cholesky, the one app with ``worker_thread``) and with GC at every
  barrier;
- and the two rewritten modifier rules against the dominance
  formulations they replaced, over notices drawn from histories.

:func:`histories` is also the clock source of the hot-path
equivalence tests: no run can hold an arbitrary clock.
"""

from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import create_app
from repro.core import Machine
from repro.core.config import (CrashSpec, FaultConfig, MachineConfig,
                               NetworkConfig)
from repro.mem.intervals import WriteNotice
from repro.mem.timestamps import VectorClock
from repro.protocols.lazy import LazyBase

# -- generated histories ----------------------------------------------------


class History:
    """A played seal/send/deliver history: each processor's clocks in
    the order it held them, and the vector time of every interval."""

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        zero = VectorClock.zero(nprocs)
        self.trajectories: List[List[VectorClock]] = [
            [zero] for _ in range(nprocs)]
        self.intervals: Dict[Tuple[int, int], VectorClock] = {}
        self._in_flight: List[Tuple[int, VectorClock]] = []

    def clock(self, proc: int) -> VectorClock:
        return self.trajectories[proc][-1]

    def play(self, op: str, proc: int, arg: int) -> None:
        """``seal`` starts ``proc``'s next interval; ``send`` puts its
        clock in flight to processor ``arg``; ``deliver`` merges the
        ``arg``-th message in flight (any order) into its receiver."""
        if op == "seal":
            vc = self.clock(proc).incremented(proc)
            self.intervals[proc, vc[proc]] = vc
            self.trajectories[proc].append(vc)
        elif op == "send":
            dest = arg % self.nprocs
            if dest != proc:
                self._in_flight.append((dest, self.clock(proc)))
        elif self._in_flight:
            dest, vc = self._in_flight.pop(arg % len(self._in_flight))
            merged = self.clock(dest).merged(vc)
            if merged is not self.clock(dest):
                self.trajectories[dest].append(merged)

    def sync(self, dest: int, src: int) -> None:
        """``dest`` merges ``src``'s clock: a send delivered at once,
        as an acquire or a barrier departure brings a node up to
        date."""
        self.play("send", src, dest)
        self.play("deliver", dest, len(self._in_flight) - 1)

    def held(self) -> List[VectorClock]:
        """Every distinct clock some processor held."""
        return list({vc for path in self.trajectories for vc in path})

    def notices(self, ids, page: int = 0) -> List[WriteNotice]:
        return [WriteNotice(page=page, proc=proc, index=index,
                            vc=self.intervals[proc, index])
                for proc, index in ids]


STEP = st.tuples(st.sampled_from(("seal", "send", "deliver")),
                 st.integers(0, 7), st.integers(0, 7))


@st.composite
def histories(draw, nprocs=None, min_steps=0):
    """A :class:`History` of ``min_steps`` to 30 steps over ``nprocs``
    processors (2-8 if None)."""
    if nprocs is None:
        nprocs = draw(st.integers(2, 8))
    history = History(nprocs)
    for op, proc, arg in draw(st.lists(STEP, min_size=min_steps,
                                       max_size=30)):
        history.play(op, proc % nprocs, arg)
    return history


def _one_component_mismatches(clock, intervals):
    mine = clock.components
    return [(clock, proc, index)
            for (proc, index), vc in intervals.items()
            if clock.dominates(vc) != (mine[proc] >= index)]


@settings(max_examples=200)
@given(history=histories())
def test_one_component_decides_dominance_in_generated_histories(history):
    held = history.held()
    mins = {VectorClock(map(min, a.components, b.components))
            for position, a in enumerate(held) for b in held[position:]}
    wrong = [bad for clock in held + list(mins)
             for bad in _one_component_mismatches(clock,
                                                  history.intervals)]
    assert not wrong


def test_an_arbitrary_clock_breaks_the_one_component_rule():
    """The rule is about reachable clocks: (0, 1) names interval
    (1, 1) of vector time (1, 1) without covering processor 0's
    interval 1 that it follows."""
    history = History(2)
    history.play("seal", 0, 0)
    history.play("send", 0, 1)
    history.play("deliver", 1, 0)
    history.play("seal", 1, 0)
    assert history.intervals[1, 1] == VectorClock((1, 1))
    assert _one_component_mismatches(VectorClock((0, 1)),
                                     history.intervals)


# -- the modifier rules against their dominance formulations ----------------


def _strictly_dominates(a, b):
    return a.dominates(b) and a != b


def _reference_concurrent_last_modifiers(notices):
    """``concurrent_last_modifiers`` as it compared whole clocks."""
    latest = {}
    for notice in notices:
        current = latest.get(notice.proc)
        if current is None or notice.index > current.index:
            latest[notice.proc] = notice
    if len(latest) == 1:
        return list(latest)
    return sorted(proc for proc, notice in latest.items()
                  if not any(_strictly_dominates(other.vc, notice.vc)
                             for other_proc, other in latest.items()
                             if other_proc != proc))


def _reference_assign_wanted(notices, modifiers, escalated, all_notices):
    """``_assign_wanted`` as it compared whole clocks."""
    latest_vc = {}
    for notice in all_notices:
        current = latest_vc.get(notice.proc)
        if current is None or notice.index > current[notice.proc]:
            latest_vc[notice.proc] = notice.vc
    assignment = {}
    for notice in notices:
        target = None
        if notice.proc in modifiers or notice.interval_id in escalated:
            target = notice.proc
        else:
            for modifier in modifiers:
                vc = latest_vc.get(modifier)
                if vc is not None and vc.dominates(notice.vc):
                    target = modifier
                    break
        if target is None:
            target = notice.proc
        assignment.setdefault(target, []).append(notice)
    return assignment


@st.composite
def modifier_scenarios(draw):
    """Notices of some intervals of a history, a wanted subset, the
    modifiers a miss would route to (the concurrent last modifiers but
    the faulting node) and an escalated subset."""
    history = draw(histories(min_steps=10))
    ids = sorted(history.intervals)
    chosen = draw(st.lists(st.sampled_from(ids), unique=True)
                  if ids else st.just([]))
    notices = history.notices(chosen)
    wanted = [n for n in notices if draw(st.booleans())]
    me = draw(st.integers(0, history.nprocs - 1))
    modifiers = [m for m in _reference_concurrent_last_modifiers(notices)
                 if m != me]
    escalated = {n.interval_id for n in wanted if draw(st.booleans())}
    return notices, wanted, modifiers, escalated


@settings(max_examples=300)
@given(scenario=modifier_scenarios())
def test_modifier_rules_match_their_dominance_formulations(scenario):
    notices, wanted, modifiers, escalated = scenario
    assert (LazyBase.concurrent_last_modifiers(None, notices)
            == _reference_concurrent_last_modifiers(notices))
    assert (LazyBase._assign_wanted(None, wanted, modifiers, escalated,
                                    notices)
            == _reference_assign_wanted(wanted, modifiers, escalated,
                                        notices))


# -- real runs ----------------------------------------------------------------

PROTOCOLS = ["li", "lu", "lh", "ec", "ei", "eu", "sc"]
APPS = {"jacobi": dict(n=24, iterations=3),
        "water": dict(nmols=12, steps=2),
        "cholesky": dict(k=4),
        "kvstore": dict(nkeys=16, value_words=8, shards=4, requests=60,
                        rate_rps=40_000.0)}
NETWORKS = {"atm": NetworkConfig.atm, "ethernet": NetworkConfig.ethernet}
#: About seven times the busiest case's need (27,738 events): a run
#: that spends it has hung.
MAX_EVENTS = 200_000
#: Variant -> (MachineConfig fields, threads per node).
VARIANTS = {
    "clean": ({}, 1),
    "lossy": (dict(faults=FaultConfig(drop_prob=0.02, dup_prob=0.01,
                                      reorder_prob=0.01)), 1),
    # Down past the default retransmission timeout, as in the crash
    # integration tests.
    "crash": (dict(faults=FaultConfig(crashes=(
        CrashSpec(proc=1, at_us=400.0, down_us=60_000.0),))), 1),
    "threads2": ({}, 2),
    "gc1": (dict(gc_barrier_interval=1), 1),
}


def _cases():
    for protocol in PROTOCOLS:
        for app in APPS:
            for network in NETWORKS:
                for variant in VARIANTS:
                    if variant == "threads2" and app != "cholesky":
                        continue  # the one app with worker_thread
                    case = (protocol, app, network, variant)
                    yield pytest.param(*case, id="-".join(case))


def _cone_check(node):
    """How many intervals ``node``'s clock was checked against, and
    what is wrong: an interval where one component and dominance
    disagree, or one the clock covers that the node's log lacks.  A
    node's knowledge is complete below its clock (grants and
    departures ship every record above the receiver's clock), except
    for what GC pruned at or below the clock validated one GC cycle
    earlier."""
    vc = node.vc
    mine = vc.components
    log = node.interval_log
    items = list(log._records.values())
    for copy in node.pagetable.copies.values():
        items.extend(copy.pending_notices)
    wrong = [("cone", node.proc, vc, item.interval_id, item.vc)
             for item in items
             if vc.dominates(item.vc) != (mine[item.proc] >= item.index)]
    pruned = node.protocol._gc_prunable_vc or VectorClock.zero(len(vc))
    wrong += [("unlogged", node.proc, vc, (proc, index))
              for proc, top in enumerate(mine)
              for index in range(pruned[proc] + 1, top + 1)
              if (proc, index) not in log]
    return len(items), wrong


def run_checked(app, params, protocol, config, threads_per_proc=1):
    """Run ``app`` with the cone check after every barrier departure
    (each node's ``apply_depart`` is wrapped on the instance) and on
    every node at the end.  Returns the run's result, the number of
    interval checks made, and everything wrong."""
    machine = Machine(config, protocol=protocol)
    counts: List[int] = []
    wrong: List[tuple] = []

    def check(node):
        count, bad = _cone_check(node)
        counts.append(count)
        wrong.extend(bad)

    for node in machine.nodes:
        real = node.protocol.apply_depart

        def apply_depart(payload, real=real, node=node):
            yield from real(payload)
            check(node)
        node.protocol.apply_depart = apply_depart
    result = machine.run_app(create_app(app, **params),
                             max_events=MAX_EVENTS,
                             threads_per_proc=threads_per_proc)
    for node in machine.nodes:
        check(node)
    return result, sum(counts), wrong


@pytest.mark.parametrize("protocol,app,network,variant", list(_cases()))
def test_one_component_decides_dominance_in_real_runs(protocol, app,
                                                      network, variant):
    fields, threads = VARIANTS[variant]
    config = MachineConfig(nprocs=4, network=NETWORKS[network](),
                           **fields)
    result, checked, wrong = run_checked(app, APPS[app], protocol,
                                         config, threads)
    assert not wrong
    if protocol != "sc":
        assert checked > 0
    if variant == "crash":
        assert result.registry.total("faults.recoveries_total") == 1
