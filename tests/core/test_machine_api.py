"""Unit tests for the machine, node CPU model, and application API."""

from collections import Counter

import numpy as np
import pytest

from repro.core import DsmApi, Machine, MachineConfig, NetworkConfig
from repro.core.config import FaultConfig, OverheadConfig
from repro.net.message import Message, MsgKind
from repro.obs import MemorySink, Observability, Tracer
from repro.sim.engine import SimulationError


def make_machine(nprocs=4, protocol="lh", **kwargs):
    config = MachineConfig(nprocs=nprocs,
                           network=NetworkConfig.ideal(), **kwargs)
    return Machine(config, protocol=protocol)


class TestAllocation:
    def test_striped_ownership(self):
        machine = make_machine(nprocs=4)
        seg = machine.allocate("a", machine.config.words_per_page * 6,
                               owner="striped")
        owners = [machine.page_owner(p) for p in seg.pages]
        assert owners == [0, 1, 2, 3, 0, 1]

    def test_block_ownership(self):
        machine = make_machine(nprocs=4)
        seg = machine.allocate("a", machine.config.words_per_page * 8,
                               owner="block")
        owners = [machine.page_owner(p) for p in seg.pages]
        assert owners == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_fixed_ownership(self):
        machine = make_machine(nprocs=4)
        seg = machine.allocate("a", 64, owner=2)
        assert machine.page_owner(seg.first_page) == 2
        copy = machine.nodes[2].pagetable.get(seg.first_page)
        assert copy is not None and copy.valid

    def test_init_values_land_at_owner(self):
        machine = make_machine(nprocs=2)
        init = np.arange(100, dtype=float)
        seg = machine.allocate("a", 100, init=init, owner=0)
        copy = machine.nodes[0].pagetable.get(seg.first_page)
        np.testing.assert_array_equal(copy.values[:100], init)

    def test_bad_owner_spec_rejected(self):
        machine = make_machine(nprocs=2)
        with pytest.raises(ValueError):
            machine.allocate("a", 8, owner="diagonal")
        with pytest.raises(ValueError):
            machine.allocate("b", 8, owner=7)

    def test_init_length_checked(self):
        machine = make_machine(nprocs=2)
        with pytest.raises(ValueError):
            machine.allocate("a", 8, init=np.zeros(9))

    def test_unallocated_page_owner_rejected(self):
        machine = make_machine(nprocs=2)
        with pytest.raises(SimulationError):
            machine.page_owner(99)


class TestRun:
    def test_run_collects_per_proc_results(self):
        machine = make_machine(nprocs=3)
        machine.allocate("a", 8)

        def worker(api, proc):
            yield from api.compute(100 * (proc + 1))
            return proc * 10

        result = machine.run(
            lambda p: worker(DsmApi(machine.nodes[p]), p))
        assert result.app_result == [0, 10, 20]
        assert result.elapsed_cycles == 300.0

    def test_deadlock_reported_with_culprits(self):
        machine = make_machine(nprocs=2)
        machine.allocate("a", 8)

        def worker(api, proc):
            if proc == 0:
                yield from api.barrier(0)  # proc 1 never arrives
            else:
                yield from api.compute(1)

        with pytest.raises(SimulationError, match=r"\[0\]") as err:
            machine.run(lambda p: worker(DsmApi(machine.nodes[p]), p))
        # Nothing left to dispatch: a deadlock, and the report says so.
        assert "did not finish: event queue drained at t=" in str(
            err.value)
        assert "(deadlock)" in str(err.value)

    def test_event_budget_reported_apart_from_deadlock(self):
        machine = make_machine(nprocs=2)
        machine.allocate("a", 8)

        def worker(api):
            for _ in range(50):
                yield from api.compute(10)

        with pytest.raises(
                SimulationError,
                match=r"workers \[0, 1\] did not finish: stopped at "
                      r"max_events=20 with \d+ events pending at t="):
            machine.run(lambda p: worker(DsmApi(machine.nodes[p])),
                        max_events=20)


class TestApi:
    def test_write_scalar_broadcast(self):
        machine = make_machine(nprocs=1)
        seg = machine.allocate("a", 32)

        def worker(api, proc):
            yield from api.write_region(seg, 4, 8, 7.5)
            data = yield from api.read_region(seg, 0, 10)
            return data.tolist()

        result = machine.run(
            lambda p: worker(DsmApi(machine.nodes[p]), p))
        assert result.app_result[0] == [0, 0, 0, 0, 7.5, 7.5, 7.5,
                                        7.5, 0, 0]

    def test_write_length_mismatch_rejected(self):
        machine = make_machine(nprocs=1)
        seg = machine.allocate("a", 32)

        def worker(api, proc):
            yield from api.write_region(seg, 0, 4, np.zeros(5))

        with pytest.raises(ValueError):
            machine.run(lambda p: worker(DsmApi(machine.nodes[p]), p))

    def test_region_ops_cross_page_boundaries(self):
        machine = make_machine(nprocs=2)
        words = machine.config.words_per_page
        seg = machine.allocate("a", words * 3)

        def worker(api, proc):
            if proc == 0:
                span = np.arange(words * 2, dtype=float)
                yield from api.write_region(seg, words // 2,
                                            words // 2 + len(span),
                                            span)
            yield from api.barrier(0)
            data = yield from api.read_region(seg, words // 2,
                                              words // 2 + words * 2)
            return float(data.sum())

        result = machine.run(
            lambda p: worker(DsmApi(machine.nodes[p]), p))
        expected = float(np.arange(words * 2).sum())
        assert result.app_result == [expected, expected]


class TestCpuModel:
    def test_compute_accounts_interrupt_cycles(self):
        """Handler (interrupt) work that lands inside an application
        compute window stretches the window."""
        machine = make_machine(nprocs=2)
        machine.allocate("a", 8)
        node = machine.nodes[0]
        finished = {}

        def busy(api, proc):
            if proc == 0:
                yield from api.compute(10_000)
                finished["t"] = api.now
            else:
                yield from api.compute(1)

        # Inject an interrupt at t=5000 worth 2000 cycles.
        machine.sim.schedule(5_000.0, node.handler_charge, 2_000.0)
        machine.run(lambda p: busy(DsmApi(machine.nodes[p]), p))
        assert finished["t"] == 12_000.0

    def test_handlers_serialize(self):
        machine = make_machine(nprocs=2)
        node = machine.nodes[0]
        first_end = node.handler_charge(100.0)
        second_end = node.handler_charge(50.0)
        assert first_end == 100.0
        assert second_end == 150.0

    def test_negative_compute_rejected(self):
        machine = make_machine(nprocs=1)
        machine.allocate("a", 8)

        def worker(api, proc):
            yield from api.compute(-5)

        with pytest.raises(ValueError):
            machine.run(lambda p: worker(DsmApi(machine.nodes[p]), p))

    @pytest.mark.parametrize("cycles", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_non_finite_compute_rejected_before_it_counts(self, cycles):
        """NaN used to finish with a NaN compute total, and inf died in
        the dispatch loop; both are rejected, uncounted, naming the
        value."""
        machine = make_machine(nprocs=2)
        machine.allocate("a", 8)

        def worker(api, proc):
            yield from api.compute(cycles)

        with pytest.raises(ValueError, match=repr(cycles)):
            machine.run(lambda p: worker(DsmApi(machine.nodes[p]), p))
        assert machine.obs.registry.total("cpu.compute_cycles_total") \
            == 0


class TestMessagePlumbing:
    def test_send_with_wrong_source_rejected(self):
        machine = make_machine(nprocs=2)
        node = machine.nodes[0]
        message = Message(src=1, dst=0, kind=MsgKind.PAGE_REQ)

        def proc():
            yield from node.app_send(message)

        machine.sim.spawn(proc())
        with pytest.raises(SimulationError, match="src"):
            machine.sim.run()

    def test_handler_send_with_wrong_source_rejected(self):
        machine = make_machine(nprocs=2)
        message = Message(src=1, dst=0, kind=MsgKind.PAGE_REQ)
        with pytest.raises(SimulationError, match="src=1"):
            machine.nodes[0].handler_send(message)
        # Rejected before anything was counted or scheduled.
        assert machine.obs.registry.total("dsm.messages_total") == 0
        assert machine.sim.pending == 0

    def test_unexpected_reply_rejected(self):
        machine = make_machine(nprocs=2)
        message = Message(src=1, dst=0, kind=MsgKind.PAGE_REPLY,
                          reply_to=12345)
        machine.network.transmit(message)
        with pytest.raises(SimulationError, match="unexpected reply"):
            machine.sim.run()

    def test_zero_overhead_app_send_yields_nothing(self):
        """The Table 3 zero-overhead ablation: a send that costs no
        cycles must not yield, or every run gains one event per
        message."""
        machine = make_machine(nprocs=2,
                               overhead=OverheadConfig(scale=0.0))
        seen = []
        machine.transmit = seen.append
        message = Message(src=0, dst=1, kind=MsgKind.PAGE_REQ)
        assert list(machine.nodes[0].app_send(message)) == []
        assert seen == [message]
        assert machine.obs.registry.total("cpu.overhead_cycles_total") \
            == 0.0

    def test_zero_overhead_run_event_count_pinned(self):
        """Event, message and cycle counts of a zero-overhead Jacobi
        run, as dispatched before the send path was fused."""
        from repro.apps import create_app
        from repro.core.runner import run_app
        result = run_app(
            create_app("jacobi", n=24, iterations=3),
            MachineConfig(nprocs=4, network=NetworkConfig.atm(),
                          overhead=OverheadConfig(scale=0.0)),
            protocol="li")
        assert result.registry.total("sim.events_dispatched_total") \
            == 328
        assert result.total_messages == 96
        assert result.elapsed_cycles == 125251.20000000016

    @pytest.mark.parametrize("faults", [
        FaultConfig(), FaultConfig(drop_prob=0.05, seed=7)],
        ids=["raw", "transport"])
    def test_transmit_tap_sees_every_message_once_in_send_order(
            self, faults):
        """``machine.transmit`` is read per send, so assigning a
        wrapper taps every message — on the raw network and with the
        reliable transport in between."""
        sink = MemorySink()
        # ATM: a dropped frame still crossed the switch, so every
        # transmission leaves a net.xmit event.
        machine = Machine(
            MachineConfig(nprocs=4, network=NetworkConfig.atm(),
                          faults=faults),
            obs=Observability(tracer=Tracer(sink)))
        assert (machine.transport is not None) == faults.enabled
        seg = machine.allocate("a", machine.config.words_per_page * 4)
        tapped = []
        forward = machine.transmit

        def tap(message):
            tapped.append(message)
            forward(message)

        machine.transmit = tap

        def worker(api, proc):
            for lock in range(3):
                yield from api.acquire(lock)
                yield from api.write(seg, proc, float(proc))
                yield from api.release(lock)
            yield from api.barrier(0)

        result = machine.run(
            lambda p: worker(DsmApi(machine.nodes[p]), p))
        assert len(tapped) == result.total_messages > 0
        assert (Counter(m.kind.value for m in tapped)
                == Counter(result.registry.by_label(
                    "dsm.messages_total", "msg_type")))
        # Send order is the order the medium first accepted them
        # (the transport adds acks, msg None, and retransmissions).
        on_wire = [e.fields["msg"] for e in sink.events
                   if e.name == "net.xmit" and e.fields["msg"] is not None]
        assert [m.msg_id for m in tapped] == list(dict.fromkeys(on_wire))

    def test_node_cells_mid_run_equal_the_registry(self):
        """A node's cells are the registry's ``node`` series, readable
        mid-run; its finish time is known once the run ends."""
        machine = make_machine(nprocs=2)
        seg = machine.allocate("a", 8, owner=0)
        registry = machine.obs.registry
        seen = {}

        def node_1(name):
            return registry.by_label(name, "node")["1"]

        def worker(api, proc):
            if proc == 1:
                yield from api.read(seg, 0)
                ins = machine.nodes[1].ins
                seen["messages"] = (sum(child.value for child
                                        in ins.messages.values()),
                                    node_1("dsm.messages_total"))
                seen["misses"] = (ins.read_misses.value,
                                  node_1("dsm.read_misses_total"))
                seen["overhead"] = (ins.overhead_cycles.value,
                                    node_1("cpu.overhead_cycles_total"))
            yield from api.barrier(0)

        result = machine.run(
            lambda p: worker(DsmApi(machine.nodes[p]), p))
        assert seen["messages"][0] == seen["messages"][1] >= 1
        assert seen["misses"] == (1, 1)
        assert seen["overhead"][0] == seen["overhead"][1] > 0
        assert len(result.finish_times) == 2
        assert all(time > 0 for time in result.finish_times)
        assert node_1("dsm.messages_total") > seen["messages"][0]
