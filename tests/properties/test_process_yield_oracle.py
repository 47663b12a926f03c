"""Process-yield oracle: a bare number vs the Timeout it stands for.

A process may wait ``d`` cycles two ways: ``yield d`` (the engine's
allocation-free fast path in ``Process._resume``) or ``yield
sim.timeout(d)``.  The fast path promises the same two dispatches the
Timeout costs (the fire, then the wake-up), so a program must not be
able to tell them apart.  Hypothesis drives random process programs —
delays that go to the ready deque (0), to the heap (timed), and to the
heap while due *now* (1.0 at a 1e18 clock, where it vanishes in float
addition), interleaved with waits on events other processes fire,
pending or already fired — once each way, and demands the same resume
order, final clock, ``_seq``, ``processed_events`` and queue-depth
peak.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import Observability
from repro.sim import Simulator

NEVENTS = 3

#: 0.0 → ready deque; 1.0 → heap, due now at 1e18; the rest timed
#: (multiples of 1024 survive float addition at 1e18).
delays = st.sampled_from([0.0, 0.0, 1.0, 1024.0, 2048.0])
ops = st.one_of(
    st.tuples(st.just("delay"), delays),
    st.tuples(st.just("wait"), st.integers(0, NEVENTS - 1)),
    st.tuples(st.just("fire"), st.integers(0, NEVENTS - 1)))
programs = st.lists(st.lists(ops, max_size=8), min_size=1, max_size=4)


def _run(program, base, numeric):
    sim = Simulator()
    sim.now = base
    obs = Observability()
    sim.attach_obs(obs)
    events = [sim.event(f"e{i}") for i in range(NEVENTS)]
    order = []

    def proc(ident, steps):
        for step, (op, arg) in enumerate(steps):
            if op == "delay":
                yield arg if numeric else sim.timeout(arg)
            elif op == "wait":
                yield events[arg]
            elif not events[arg].triggered:
                events[arg].succeed(ident)
            order.append((ident, step, sim.now))

    for ident, steps in enumerate(program):
        sim.spawn(proc(ident, steps))
    sim.run()
    return dict(order=order, now=sim.now, seq=sim._seq,
                processed=sim.processed_events,
                peak=obs.registry.get("sim.queue_depth_peak")
                .labels().value)


@settings(deadline=None, max_examples=200)
@given(program=programs, base=st.sampled_from([0.0, 1e18]))
# One process waits on an event another fires mid-run while a third
# takes a heap entry due now (1.0 at 1e18) next to a zero delay.
@example(program=[[("wait", 0), ("delay", 0.0)],
                  [("delay", 1.0), ("fire", 0), ("delay", 0.0)],
                  [("fire", 1), ("wait", 1), ("delay", 1024.0)]],
         base=1e18)
def test_numeric_yield_matches_timeout(program, base):
    assert _run(program, base, numeric=True) \
        == _run(program, base, numeric=False)
