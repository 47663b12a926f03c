"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (AllOf, Event, Process, Resource, SimulationError,
                       Simulator, Timeout)


def test_empty_run_returns_zero():
    sim = Simulator()
    assert sim.run() == 0.0


def test_schedule_order_is_time_then_fifo():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, seen.append, "b")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(5.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 5.0


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(10.0)
        yield sim.timeout(2.5)
        return sim.now

    result = sim.run_process(sim.spawn(proc()))
    assert result == 12.5


def test_yield_bare_number_is_timeout():
    sim = Simulator()

    def proc():
        yield 7
        return sim.now

    assert sim.run_process(sim.spawn(proc())) == 7.0


def test_event_wakes_waiter_with_value():
    sim = Simulator()
    gate = sim.event("gate")
    results = []

    def waiter():
        value = yield gate
        results.append((sim.now, value))

    def firer():
        yield sim.timeout(3.0)
        gate.succeed("hello")

    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert results == [(3.0, "hello")]


def test_event_double_succeed_raises():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_event_callback_after_trigger_still_fires():
    sim = Simulator()
    event = sim.event()
    event.succeed(42)
    seen = []
    event.add_callback(lambda e: seen.append(e.value))
    sim.run()
    assert seen == [42]


def test_process_join_returns_value():
    sim = Simulator()

    def child():
        yield sim.timeout(4.0)
        return "done"

    def parent():
        value = yield sim.spawn(child())
        return (sim.now, value)

    assert sim.run_process(sim.spawn(parent())) == (4.0, "done")


def test_all_of_waits_for_every_child():
    sim = Simulator()
    events = [sim.event(str(i)) for i in range(3)]

    def firer(i):
        yield sim.timeout(float(i + 1))
        events[i].succeed(i * 10)

    def waiter():
        values = yield sim.all_of(events)
        return (sim.now, values)

    for i in range(3):
        sim.spawn(firer(i))
    result = sim.run_process(sim.spawn(waiter()))
    assert result == (3.0, [0, 10, 20])


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def waiter():
        values = yield sim.all_of([])
        return values

    assert sim.run_process(sim.spawn(waiter())) == []


def test_yield_list_waits_for_all():
    sim = Simulator()

    def waiter():
        yield [sim.timeout(2.0), sim.timeout(5.0)]
        return sim.now

    assert sim.run_process(sim.spawn(waiter())) == 5.0


def test_process_yielding_garbage_raises():
    sim = Simulator()

    def proc():
        yield "nonsense"

    sim.spawn(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    seen = []
    sim.schedule(10.0, seen.append, "late")
    sim.run(until=5.0)
    assert seen == []
    assert sim.now == 5.0


def test_deadlock_detected_by_run_process():
    sim = Simulator()

    def stuck():
        yield sim.event("never")

    with pytest.raises(
            SimulationError,
            match=r"did not finish: event queue drained at t=0 with "
                  r"the process blocked \(deadlock\)"):
        sim.run_process(sim.spawn(stuck()))


def test_event_budget_reported_apart_from_deadlock():
    sim = Simulator()

    def slow():
        for _ in range(10):
            yield 1.0

    with pytest.raises(
            SimulationError,
            match=r"did not finish: stopped at max_events=5 with 1 "
                  r"events pending at t=2"):
        sim.run_process(sim.spawn(slow()), max_events=5)


def test_run_until_cannot_rewind_the_clock():
    """``run(until=t)`` with ``t`` behind the clock used to set ``now``
    back to ``t``; an event then scheduled with delay 1.0 fired at
    ``t + 1`` — before events that had already run."""
    sim = Simulator()
    sim.schedule(30.0, lambda: None)
    sim.run(until=20.0)
    with pytest.raises(SimulationError, match=r"until 5\.0.*at 20\.0"):
        sim.run(until=5.0)
    assert sim.now == 20.0
    assert sim.run(until=20.0) == 20.0      # the present is allowed
    assert sim.run() == 30.0


def test_run_until_leaves_clock_alone_when_queue_drains_first():
    sim = Simulator()
    sim.schedule(3.0, lambda: None)
    assert sim.run(until=10.0) == 3.0
    assert sim.run(max_events=0) == 3.0


class TestResource:
    def test_fifo_mutual_exclusion(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1, name="cpu")
        order = []

        def user(i, hold):
            yield resource.request()
            order.append((i, sim.now))
            yield sim.timeout(hold)
            resource.release()

        for i in range(3):
            sim.spawn(user(i, 10.0))
        sim.run()
        assert order == [(0, 0.0), (1, 10.0), (2, 20.0)]
        assert resource.total_waits == 2
        assert resource.total_wait_cycles == 30.0

    def test_capacity_two_allows_parallelism(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        starts = []

        def user(i):
            yield resource.request()
            starts.append((i, sim.now))
            yield sim.timeout(10.0)
            resource.release()

        for i in range(3):
            sim.spawn(user(i))
        sim.run()
        assert starts == [(0, 0.0), (1, 0.0), (2, 10.0)]

    def test_release_idle_raises(self):
        sim = Simulator()
        resource = Resource(sim)
        with pytest.raises(RuntimeError):
            resource.release()


class TestObsCounterBatching:
    """The dispatch loop batches event counters locally and folds them
    into the metrics registry once per call — exactly once, whether
    events flow through run(), run_until(), or step()."""

    @staticmethod
    def _observed_sim():
        from repro.obs import Observability
        sim = Simulator()
        obs = Observability()
        sim.attach_obs(obs)
        events = obs.registry.get("sim.events_dispatched_total")
        return sim, events

    def test_run_flushes_batched_counter_once(self):
        sim, events = self._observed_sim()
        for i in range(7):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.processed_events == 7
        assert events.labels().value == 7

    def test_step_and_run_agree_on_event_count(self):
        sim, events = self._observed_sim()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.step()
        sim.run()
        assert not sim.step()        # empty queue: no count movement
        assert sim.processed_events == 2
        assert events.labels().value == 2

    def test_counters_survive_raising_callback(self):
        sim, events = self._observed_sim()
        sim.schedule(1.0, lambda: None)

        def boom():
            raise RuntimeError("callback failure")

        sim.schedule(2.0, boom)
        with pytest.raises(RuntimeError, match="callback failure"):
            sim.run()
        # The locally-batched count still reached the registry: the
        # event that completed is recorded (the raiser, whose
        # callback never finished, is not — same as step()).
        assert sim.processed_events == 1
        assert events.labels().value == 1

    def test_run_until_counts_match_plain_run(self):
        def program(sim):
            def proc():
                for _ in range(3):
                    yield 1.0

            sim.spawn(proc())
            sim.spawn(proc())

        sim_a, events_a = self._observed_sim()
        program(sim_a)
        sim_a.run()
        sim_b, events_b = self._observed_sim()
        program(sim_b)
        sim_b.run_until(sim_b.event("never"))
        assert events_a.labels().value == events_b.labels().value
        assert sim_a.processed_events == sim_b.processed_events


def test_yield_bare_float_is_timeout():
    sim = Simulator()

    def proc():
        yield 2.5
        return sim.now

    assert sim.run_process(sim.spawn(proc())) == 2.5


def test_determinism_same_program_same_times():
    def build():
        sim = Simulator()
        trace = []

        def proc(i):
            yield sim.timeout(float(i))
            trace.append((i, sim.now))
            yield sim.timeout(2.0)
            trace.append((i, sim.now))

        for i in range(5):
            sim.spawn(proc(i))
        sim.run()
        return trace

    assert build() == build()


def test_process_pause_defers_resumes_until_unpause():
    """A paused process (a crashed node's frozen worker) banks every
    resume that lands during the freeze and replays them, in order,
    when unpaused — the continuation itself never observes the gap."""
    sim = Simulator()
    log = []

    def worker():
        yield 10
        log.append(("a", sim.now))
        yield 10
        log.append(("b", sim.now))

    process = sim.spawn(worker())
    sim.schedule(5, process.pause)     # freeze before the t=10 resume
    sim.schedule(50, process.unpause)  # thaw: deferred resume replays
    sim.run()
    assert log == [("a", 50), ("b", 60)]


def test_process_unpause_without_deferred_resumes_is_harmless():
    sim = Simulator()
    log = []

    def worker():
        yield 100
        log.append(sim.now)

    process = sim.spawn(worker())
    sim.schedule(5, process.pause)
    sim.schedule(6, process.unpause)   # nothing was deferred yet
    sim.run()
    assert log == [100]


# -- what each yield form costs ------------------------------------------
#
# Process._resume queues every wake-up itself (Event.add_callback and
# Simulator.schedule spelled out); these pin the dispatches each yield
# form costs and where its wake-up lands in the order.


def _run_logged(build):
    sim = Simulator()
    log = []
    build(sim, log)
    sim.run()
    return sim, log


def test_number_yield_costs_two_dispatches():
    """The hop (heap, or ready deque for 0), then the resume."""
    for delay in (0, 5, 2.5):
        def build(sim, log, delay=delay):
            def proc():
                yield delay
                log.append(sim.now)
            sim.spawn(proc())

        sim, log = _run_logged(build)
        assert log == [float(delay)]
        # spawn resume + delay hop + resume
        assert (sim.processed_events, sim._seq) == (3, 3)


def test_pending_event_yield_costs_one_dispatch_per_fire():
    def build(sim, log):
        gate = sim.event("gate")

        def proc():
            log.append((yield gate))
        sim.spawn(proc())
        sim.schedule(3.0, gate.succeed, "v")

    sim, log = _run_logged(build)
    assert log == ["v"]
    # spawn resume + succeed + resume
    assert (sim.processed_events, sim._seq, sim.now) == (3, 3, 3.0)


def test_triggered_event_yield_costs_one_dispatch():
    def build(sim, log):
        gate = sim.event("gate")
        gate.succeed("early")

        def proc():
            log.append((yield gate))
        sim.spawn(proc())

    sim, log = _run_logged(build)
    assert log == ["early"]
    assert (sim.processed_events, sim._seq) == (2, 2)


def test_list_yield_waits_through_one_all_of():
    def build(sim, log):
        first, second = sim.event("a"), sim.event("b")

        def proc():
            log.append((yield [first, second]))
        sim.spawn(proc())
        sim.schedule(1.0, first.succeed, 1)
        sim.schedule(2.0, second.succeed, 2)

    sim, log = _run_logged(build)
    assert log == [[1, 2]]
    # spawn resume + 2 fires + 2 child wake-ups + resume
    assert (sim.processed_events, sim._seq, sim.now) == (6, 6, 2.0)


def test_yield_forms_wake_in_sequence_order():
    """Spawned in order a, b, c at t=0: ``a``'s zero delay needs a hop
    before its resume, ``b``'s fired event and ``c``'s list of one
    fired event are one hop (``c``'s through its AllOf), so ``b`` wakes
    first, then ``a``, then ``c``."""
    def build(sim, log):
        fired = sim.event("fired")
        fired.succeed()

        def a():
            yield 0
            log.append("a")

        def b():
            yield fired
            log.append("b")

        def c():
            yield [fired]
            log.append("c")

        for proc in (a, b, c):
            sim.spawn(proc())

    sim, log = _run_logged(build)
    assert log == ["b", "a", "c"]
    # 3 spawn resumes; a: hop + resume; b: resume; c: child + resume
    assert (sim.processed_events, sim._seq) == (8, 8)


# -- a non-finite delay is rejected where it enters ----------------------


@pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1.0],
                         ids=["nan", "inf", "negative"])
def test_schedule_rejects_bad_delay(delay):
    sim = Simulator()
    with pytest.raises(SimulationError, match=repr(delay)):
        sim.schedule(delay, lambda: None)
    assert sim.pending == 0 and sim._seq == 0


@pytest.mark.parametrize("delay", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
def test_timeout_rejects_non_finite_delay(delay):
    sim = Simulator()
    with pytest.raises(SimulationError, match=repr(delay)):
        sim.timeout(delay)
    assert sim.pending == 0


@pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1],
                         ids=["nan", "inf", "negative"])
def test_process_yield_rejects_bad_delay(delay):
    sim = Simulator()

    def proc():
        yield delay

    sim.spawn(proc())
    with pytest.raises(ValueError, match=repr(delay)):
        sim.run()
    assert sim.pending == 0
