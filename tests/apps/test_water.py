"""Water application: force correctness and sharing behaviour."""

import numpy as np
import pytest

from repro.apps.water import (Water, initial_positions, pair_force,
                              sequential_forces)
from repro.core import MachineConfig, NetworkConfig, run_app
from repro.protocols import PROTOCOL_NAMES


def test_pair_force_antisymmetric():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([4.0, 5.0, 6.0])
    np.testing.assert_allclose(pair_force(a, b, 50.0),
                               -pair_force(b, a, 50.0))


def test_pair_force_respects_cutoff():
    a = np.zeros(3)
    b = np.array([30.0, 0.0, 0.0])
    assert pair_force(a, b, 10.0).tolist() == [0.0, 0.0, 0.0]
    assert pair_force(a, b, 40.0).any()


def test_pair_force_periodic_wraparound():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([99.0, 0.0, 0.0])  # 2 apart across the boundary
    force = pair_force(a, b, 10.0)
    assert force.any()


def test_sequential_forces_sum_to_zero():
    positions = initial_positions(10)
    forces = sequential_forces(positions, 50.0)
    np.testing.assert_allclose(forces.sum(axis=0), 0.0, atol=1e-9)


@pytest.mark.parametrize("nmols", [9, 10])
def test_sequential_forces_each_pair_once(nmols):
    """All-pairs reference: the ring enumeration must cover each
    unordered pair exactly once (odd and even N)."""
    positions = initial_positions(nmols)
    ring = sequential_forces(positions, 1e9)
    allpairs = np.zeros((nmols, 3))
    for i in range(nmols):
        for j in range(i + 1, nmols):
            f = pair_force(positions[i], positions[j], 1e9)
            allpairs[i] += f
            allpairs[j] -= f
    np.testing.assert_allclose(ring, allpairs, atol=1e-9)


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_water_matches_oracle_all_protocols(protocol):
    config = MachineConfig(nprocs=4, network=NetworkConfig.atm())
    result = run_app(Water(nmols=16, steps=2), config,
                     protocol=protocol)
    assert result.elapsed_cycles > 0
    assert result.registry.total("sync.lock_acquires_total") > 0


def test_water_single_processor_no_messages():
    result = run_app(Water(nmols=12, steps=1), MachineConfig(nprocs=1))
    assert result.total_messages == 0


def test_water_many_lock_acquires_medium_grain():
    """Water is lock-heavy: roughly one lock per touched molecule per
    processor per step."""
    config = MachineConfig(nprocs=4, network=NetworkConfig.atm())
    result = run_app(Water(nmols=24, steps=2), config, protocol="lh")
    acquires = result.registry.total("sync.lock_acquires_total")
    assert acquires >= 24 * 2  # every molecule locked by several procs
