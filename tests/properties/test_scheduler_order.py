"""Scheduler-order oracle: the one dispatch loop vs a single heap.

:meth:`repro.sim.engine.Simulator._dispatch` keeps two tiers (a ready
deque for zero-delay events, a heap for timed ones) and promises the
``(time, seq)`` order of one global heap.  Hypothesis drives random
programs — callbacks that schedule more callbacks with zero, timed and
*rounds-to-zero* delays — through every entry point and slice form,
with and without a sampler attached, and demands what an independent
single-heap reference computes: same callback order, same final clock,
same ``_seq``, same ``processed_events`` and registry count, same
queue-depth peak, and the sampler called exactly at the boundary
crossings with the event count and pending depth of that moment.

The rounds-to-zero corner is the one the pop rule exists for: with the
clock near 1e18 a delay of 1.0 vanishes in float addition, so the entry
goes to the *heap* but is due *now*, possibly with a smaller sequence
number than the ready deque's head.  Half the examples start there
(timed delays are multiples of 1024 so they survive at that magnitude).
"""

import heapq

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.sim import Simulator

#: 0.0 → ready deque; 1.0 → heap (rounds to zero at 1e18); rest timed.
delays = st.sampled_from([0.0, 0.0, 1.0, 1024.0, 2048.0, 3072.0])
#: A task is ``(delay, children)``: when it fires it schedules each
#: child with the child's delay.
tasks = st.recursive(
    st.tuples(delays, st.just(())),
    lambda kids: st.tuples(delays,
                           st.lists(kids, max_size=3).map(tuple)),
    max_leaves=12)
programs = st.lists(tasks, min_size=1, max_size=4)


def _number(program):
    """Give every task a pre-order id: ``(id, delay, children)``."""
    counter = iter(range(10 ** 6))

    def number(task):
        delay, children = task
        return (next(counter), delay,
                tuple(number(child) for child in children))

    return [number(task) for task in program]


def _grid_after(origin, window, index, time):
    """Smallest grid boundary ``origin + k * window`` beyond ``time``
    (the multiplicative grid TimeseriesSampler walks)."""
    while time >= origin + index * window:
        index += 1
    return index


def _reference(program, base, window):
    """One heap, one counter, nothing else."""
    heap, seq, now = [], 0, base
    for task in program:
        seq += 1
        heapq.heappush(heap, (now + task[1], seq, task))
    order, times, depths, crossings = [], [], [], []
    index = 1
    while heap:
        depths.append(len(heap))
        now, _seq, (ident, _delay, children) = heapq.heappop(heap)
        if now >= base + index * window:
            crossings.append((now, len(order), len(heap)))
            index = _grid_after(base, window, index, now)
        order.append(ident)
        times.append(now)
        for child in children:
            seq += 1
            heapq.heappush(heap, (now + child[1], seq, child))
    return dict(order=order, times=times, depths=depths, now=now,
                seq=seq, crossings=crossings)


class StubSampler:
    """The two names the loop uses, recording what it could see."""

    def __init__(self, sim, window):
        self.sim, self.origin, self.window = sim, sim.now, window
        self.index = 1
        self.next_boundary = self.origin + window
        self.calls = []

    def advance_to(self, time):
        self.calls.append((time, self.sim.processed_events,
                           self.sim.pending))
        self.index = _grid_after(self.origin, self.window, self.index,
                                 time)
        self.next_boundary = self.origin + self.index * self.window
        return self.next_boundary


def _drive_run(sim, order, ref, knobs):
    sim.run()


def _drive_run_until_never(sim, order, ref, knobs):
    sim.run_until(sim.event("never"))


def _drive_steps(sim, order, ref, knobs):
    while sim.step():
        pass
    assert not sim.step()


def _drive_event_slices(sim, order, ref, knobs):
    assert sim.run(max_events=0) == sim.now and not order
    slices = 0
    while sim.pending:
        sim.run(max_events=knobs["k"])
        slices += 1
        assert len(order) == min(len(ref["order"]), slices * knobs["k"])


def _drive_until_slices(sim, order, ref, knobs):
    until = sim.now
    while sim.pending:
        until += knobs["step"]
        sim.run(until=until)
        assert len(order) == sum(t <= until for t in ref["times"])
        # The tail beyond ``until`` was not up for dispatch: the peak
        # covers the pops made so far, not the entry the slice ended on.
        assert knobs["depth_peak"]() == max(ref["depths"][:len(order)],
                                            default=0)
        if sim.pending:
            assert sim.now == until


def _drive_gate(sim, order, ref, knobs):
    sim.run_until(knobs["gate"])
    assert order[-1] == knobs["gate_id"]    # stopped right behind it
    sim.run()


DRIVERS = [_drive_run, _drive_run_until_never, _drive_steps,
           _drive_event_slices, _drive_until_slices, _drive_gate]


@pytest.mark.parametrize("drive", DRIVERS,
                         ids=[d.__name__[7:] for d in DRIVERS])
@pytest.mark.parametrize("sampled", [False, True],
                         ids=["plain", "sampled"])
@settings(deadline=None, max_examples=60)
@given(program=programs, base=st.sampled_from([0.0, 1e18]),
       window=st.sampled_from([1024.0, 1536.0, 2560.0, 5120.0]),
       k=st.integers(1, 5), step=st.sampled_from([512.0, 1024.0, 2560.0]),
       gate_pick=st.integers(0, 10 ** 6))
# The corner itself: the root's first child lands on the heap due
# *now* (seq 2), its second on the ready deque (seq 3) — heap first.
@example(program=[(0.0, ((1.0, ()), (0.0, ()), (1024.0, ())))],
         base=1e18, window=1024.0, k=2, step=512.0, gate_pick=1)
def test_dispatch_matches_single_heap(drive, sampled, program, base,
                                      window, k, step, gate_pick):
    program = _number(program)
    ref = _reference(program, base, window)

    sim = Simulator()
    sim.now = base
    obs = Observability()
    sim.attach_obs(obs)
    sampler = StubSampler(sim, window)
    if sampled:
        sim.attach_sampler(sampler)
    depth_gauge = obs.registry.get("sim.queue_depth_peak").labels()
    gate = sim.event("gate")
    gate_id = gate_pick % len(ref["order"])
    order = []

    def fire(task):
        ident, _delay, children = task
        order.append(ident)
        for child in children:
            sim.schedule(child[1], fire, child)
        if ident == gate_id:
            gate.succeed()

    for task in program:
        sim.schedule(task[1], fire, task)
    drive(sim, order, ref,
          dict(k=k, step=step, gate=gate, gate_id=gate_id,
               depth_peak=lambda: depth_gauge.value))

    assert order == ref["order"]
    assert sim.now == ref["now"]
    assert sim._seq == ref["seq"]
    assert sim.pending == 0
    assert sim.processed_events == len(ref["order"])
    assert obs.registry.get(
        "sim.events_dispatched_total").labels().value == len(order)
    assert depth_gauge.value == max(ref["depths"])
    assert sampler.calls == (ref["crossings"] if sampled else [])
