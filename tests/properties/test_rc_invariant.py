"""Property-based release-consistency invariant tests.

For data-race-free programs, release consistency is indistinguishable
from sequential consistency.  We generate random lock/barrier/compute
schedules where every word is only ever written under its own lock
(DRF by construction), run them under all five protocols on a small
page size (maximal false sharing), and require that:

1. every lock-protected counter ends with exactly the total number of
   increments performed on it (no lost or duplicated updates);
2. after the final barrier, every node observes identical memory.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DsmApi, Machine, MachineConfig, NetworkConfig
from repro.protocols.registry import ALL_PROTOCOL_NAMES as PROTOCOL_NAMES

NPROCS = 3
NLOCKS = 4
WORDS = 64  # one tiny page (256-byte pages): heavy false sharing


def lock_word(lock_id: int) -> int:
    # Spread counters over the page but keep them falsely shared.
    return lock_id * (WORDS // NLOCKS)


# One phase of one processor: a list of (lock, increments) bursts.
burst = st.tuples(st.integers(0, NLOCKS - 1), st.integers(1, 3))
phase = st.lists(burst, min_size=0, max_size=3)
# A schedule: for each of up to 2 phases, one phase per processor.
schedule_strategy = st.lists(
    st.tuples(*[phase for _ in range(NPROCS)]),
    min_size=1, max_size=2)


def run_schedule(protocol: str, schedule):
    config = MachineConfig(nprocs=NPROCS, page_size=256,
                           network=NetworkConfig.ideal())
    machine = Machine(config, protocol=protocol)
    seg = machine.allocate("counters", WORDS)
    expected = [0] * NLOCKS
    for phases in schedule:
        for proc_ops in phases:
            for lock_id, increments in proc_ops:
                expected[lock_id] += increments

    def worker(api: DsmApi, proc: int):
        for phase_index, phases in enumerate(schedule):
            for lock_id, increments in phases[proc]:
                for _ in range(increments):
                    yield from api.acquire(lock_id)
                    value = yield from api.read(seg,
                                                lock_word(lock_id))
                    yield from api.compute(50 + 10 * proc)
                    yield from api.write(seg, lock_word(lock_id),
                                         value + 1.0)
                    yield from api.release(lock_id)
            yield from api.barrier(phase_index)
        final = yield from api.read_region(seg, 0, WORDS)
        return final.tolist()

    result = machine.run(
        lambda p: worker(DsmApi(machine.nodes[p]), p))
    return result, expected


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedule=schedule_strategy)
def test_no_lost_updates_and_global_agreement(protocol, schedule):
    result, expected = run_schedule(protocol, schedule)
    views = [np.array(view) for view in result.app_result]
    # 2. All nodes agree bit-for-bit after the final barrier.
    for view in views[1:]:
        np.testing.assert_array_equal(views[0], view)
    # 1. Every counter saw every increment exactly once.
    for lock_id, count in enumerate(expected):
        assert views[0][lock_word(lock_id)] == float(count), (
            f"lock {lock_id}: expected {count}, "
            f"got {views[0][lock_word(lock_id)]}")


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(schedule=schedule_strategy)
def test_simulated_time_deterministic(protocol, schedule):
    first, _ = run_schedule(protocol, schedule)
    second, _ = run_schedule(protocol, schedule)
    assert first.elapsed_cycles == second.elapsed_cycles
    assert first.total_messages == second.total_messages
