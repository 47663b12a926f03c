"""Unit tests for the seeded fault injector (repro.faults)."""

import pytest

from repro.core.config import (FaultConfig, MachineConfig, NetworkConfig,
                               StallSpec)
from repro.faults import FaultInjector
from repro.net.message import Message, MsgKind


def make_injector(**fault_kwargs):
    config = MachineConfig(nprocs=4, network=NetworkConfig.ethernet(),
                           faults=FaultConfig(**fault_kwargs))
    return FaultInjector(config)


def msg(src=0, dst=1):
    return Message(src=src, dst=dst, kind=MsgKind.FLUSH)


def decisions(injector, n=200):
    return [injector.decide(msg()) for _ in range(n)]


def summarize(decision):
    if decision is None:
        return None
    return (decision.drop, decision.duplicate, decision.extra_delay)


def test_same_seed_gives_identical_fault_plan():
    a = decisions(make_injector(drop_prob=0.1, dup_prob=0.1,
                                reorder_prob=0.1))
    b = decisions(make_injector(drop_prob=0.1, dup_prob=0.1,
                                reorder_prob=0.1))
    assert [summarize(d) for d in a] == [summarize(d) for d in b]


def test_fault_classes_draw_from_independent_streams():
    """Enabling duplication must not change *which* messages drop:
    every class pre-draws from its own substream on every decision."""
    drops_alone = [d is not None and d.drop
                   for d in decisions(make_injector(drop_prob=0.2))]
    drops_mixed = [d is not None and d.drop
                   for d in decisions(make_injector(drop_prob=0.2,
                                                    dup_prob=0.3,
                                                    reorder_prob=0.3))]
    assert drops_alone == drops_mixed
    assert any(drops_alone)


def test_drop_short_circuits_other_faults():
    injector = make_injector(drop_prob=0.999, dup_prob=0.999)
    for decision in decisions(injector, n=50):
        if decision is not None and decision.drop:
            assert not decision.duplicate
            assert decision.extra_delay == 0.0
    assert injector.drops > 0


def test_rates_are_statistically_plausible():
    injector = make_injector(drop_prob=0.05)
    n = 5000
    drops = sum(1 for _ in range(n)
                if (d := injector.decide(msg())) and d.drop)
    assert 0.03 < drops / n < 0.07
    assert injector.drops == drops


def test_no_faults_configured_returns_none():
    quiet = make_injector()
    assert all(d is None for d in decisions(quiet, n=50))
    assert quiet.drops == quiet.duplicates == quiet.reorders == 0


def test_reorder_and_delay_accumulate_extra_delay():
    injector = make_injector(reorder_prob=0.999)
    decision = injector.decide(msg())
    assert decision is not None and not decision.drop
    assert decision.extra_delay == injector.reorder_delay
    assert injector.reorders == 1
    assert injector.delay_cycles_injected == injector.reorder_delay


def test_fault_config_validates_probabilities():
    with pytest.raises(ValueError):
        FaultConfig(drop_prob=1.5)
    with pytest.raises(ValueError):
        FaultConfig(drop_prob=-0.1)
    with pytest.raises(ValueError):
        StallSpec(proc=0, at_us=-1.0, duration_us=10.0)


def test_enabled_property_reflects_any_fault_source():
    assert not FaultConfig().enabled
    assert FaultConfig(drop_prob=0.01).enabled
    assert FaultConfig(stalls=(StallSpec(0, 0.0, 1.0),)).enabled


def test_stall_out_of_range_processor_rejected():
    from repro.core.machine import Machine
    config = MachineConfig(
        nprocs=2, network=NetworkConfig.ideal(),
        faults=FaultConfig(stalls=(StallSpec(proc=7, at_us=0.0,
                                             duration_us=1.0),)))
    with pytest.raises(ValueError):
        Machine(config, protocol="lh")


def test_stall_slows_the_stalled_node():
    """A mid-computation stall delays that worker by the stall length."""
    from repro.core.machine import Machine

    def run(stalls):
        config = MachineConfig(
            nprocs=2, network=NetworkConfig.ideal(),
            faults=FaultConfig(stalls=stalls))
        machine = Machine(config, protocol="lh")

        def worker(proc):
            yield from machine.nodes[proc].compute(10_000)

        return machine, machine.run(worker, app="stall-test")

    _m0, clean = run(())
    spec = StallSpec(proc=1, at_us=10.0, duration_us=100.0)
    machine, stalled = run((spec,))
    stall_cycles = machine.config.us_to_cycles(spec.duration_us)
    assert stalled.elapsed_cycles == pytest.approx(
        clean.elapsed_cycles + stall_cycles)
    assert stalled.registry.total("faults.stalls_total") == 1
    assert stalled.registry.total("faults.stall_cycles_total") == \
        pytest.approx(stall_cycles)


# -- crash plan (node lifecycle tier) ----------------------------------

CRASH_DRAW = dict(crash_mttf_us=30_000.0, crash_mttr_us=8_000.0,
                  crash_horizon_us=300_000.0)


def test_crash_plan_same_seed_identical():
    a = make_injector(**CRASH_DRAW).crash_plan
    b = make_injector(**CRASH_DRAW).crash_plan
    assert a == b
    assert a, "horizon of 10 MTTFs should draw at least one crash"
    assert list(a) == sorted(a, key=lambda ev: (ev.at_us, ev.proc))


def test_crash_plan_independent_of_message_faults():
    """Enabling packet faults must not move the crash instants: the
    crash plan pre-draws from its own substreams."""
    alone = make_injector(**CRASH_DRAW).crash_plan
    mixed = make_injector(drop_prob=0.2, dup_prob=0.3,
                          reorder_prob=0.3, **CRASH_DRAW).crash_plan
    assert alone == mixed


def test_crash_plan_does_not_perturb_message_faults():
    drops_alone = [d is not None and d.drop
                   for d in decisions(make_injector(drop_prob=0.2))]
    drops_with_crashes = [
        d is not None and d.drop
        for d in decisions(make_injector(drop_prob=0.2, **CRASH_DRAW))]
    assert drops_alone == drops_with_crashes


def test_mttr_toggle_keeps_first_crash_instants():
    """Switching crash-recover to crash-stop consumes the same draws,
    so each node's *first* crash time is unchanged (after the first,
    a crash-stop node is dead and draws no more)."""
    recover = make_injector(**CRASH_DRAW).crash_plan
    stop = make_injector(crash_mttf_us=30_000.0, crash_mttr_us=0.0,
                         crash_horizon_us=300_000.0).crash_plan
    first_recover = {}
    for ev in recover:
        first_recover.setdefault(ev.proc, ev.at_us)
    assert all(ev.down_us is None for ev in stop)
    procs = [ev.proc for ev in stop]
    assert len(procs) == len(set(procs))  # at most one crash per node
    for ev in stop:
        assert ev.at_us == first_recover[ev.proc]


def test_crash_plan_outages_never_overlap_per_node():
    plan = make_injector(crash_mttf_us=5_000.0, crash_mttr_us=20_000.0,
                         crash_horizon_us=400_000.0).crash_plan
    by_proc = {}
    for ev in plan:
        by_proc.setdefault(ev.proc, []).append(ev)
    assert sum(len(v) > 1 for v in by_proc.values()), \
        "MTTF << MTTR must draw repeated crashes somewhere"
    for events in by_proc.values():
        for prev, nxt in zip(events, events[1:]):
            assert nxt.at_us > prev.at_us + prev.down_us


def test_explicit_and_drawn_crashes_merge():
    from repro.core.config import CrashSpec
    from repro.faults import CrashEvent
    explicit = CrashSpec(proc=1, at_us=5.0, down_us=10.0)
    plan = make_injector(crashes=(explicit,), **CRASH_DRAW).crash_plan
    assert CrashEvent(1, 5.0, 10.0) in plan
    assert len(plan) > 1


def test_crash_config_validation():
    from repro.core.config import CrashSpec
    with pytest.raises(ValueError):
        FaultConfig(crash_mttf_us=10_000.0)  # horizon required
    with pytest.raises(ValueError):
        CrashSpec(proc=0, at_us=0.0)  # workers spawn at t=0
    with pytest.raises(ValueError):
        CrashSpec(proc=0, at_us=10.0, down_us=0.0)
    with pytest.raises(ValueError):
        # Explicit crash processor out of the machine's range.
        make_injector(crashes=(CrashSpec(proc=9, at_us=10.0),))
    assert FaultConfig(
        crashes=(CrashSpec(proc=0, at_us=10.0),)).crash_enabled
    assert FaultConfig(**CRASH_DRAW).crash_enabled
    assert not FaultConfig().crash_enabled


def test_crash_spec_survives_config_round_trip():
    from repro.core.config import CrashSpec
    config = MachineConfig(
        nprocs=4,
        faults=FaultConfig(crashes=(CrashSpec(proc=1, at_us=50.0,
                                              down_us=100.0),),
                           **CRASH_DRAW))
    rebuilt = MachineConfig.from_dict(config.to_dict())
    assert rebuilt.faults.crashes == config.faults.crashes
    assert rebuilt.faults.crash_mttf_us == config.faults.crash_mttf_us
