"""Water application: force correctness and sharing behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.water import (BOX, Water, initial_positions, pair_force,
                              sequential_forces)
from repro.core import MachineConfig, NetworkConfig, run_app
from repro.protocols import PROTOCOL_NAMES


def _numpy_pair_force(pos_i, pos_j, cutoff):
    """The kernel as numpy 3-vector arithmetic: the reference the
    scalar kernel must equal bit for bit."""
    delta = np.asarray(pos_i, dtype=np.float64) - np.asarray(pos_j)
    delta -= BOX * np.round(delta / BOX)
    dist2 = float((delta ** 2).sum())
    cutoff2 = cutoff * cutoff
    if dist2 >= cutoff2 or dist2 == 0.0:
        return np.zeros(3)
    taper = 1.0 - dist2 / cutoff2
    return delta / (dist2 + 1.0) * taper


def _numpy_sequential_forces(positions, cutoff):
    n = len(positions)
    half = n // 2
    forces = np.zeros((n, 3))
    for i in range(n):
        for k in range(1, half + 1):
            j = (i + k) % n
            if n % 2 == 0 and k == half and i >= j:
                continue
            f = _numpy_pair_force(positions[i], positions[j], cutoff)
            forces[i] += f
            forces[j] -= f
    return forces


def _assert_kernels_agree(a, b, cutoff):
    got = pair_force(a, b, cutoff)
    assert type(got) is tuple and len(got) == 3
    assert all(type(component) is float for component in got)
    assert list(got) == _numpy_pair_force(a, b, cutoff).tolist()


_coordinate = st.floats(min_value=0.0, max_value=BOX, exclude_max=True)
_position = st.lists(_coordinate, min_size=3, max_size=3)


@settings(max_examples=300, deadline=None)
@given(a=_position, b=_position,
       cutoff=st.floats(min_value=1e-3, max_value=2 * BOX))
def test_scalar_kernel_equals_numpy_kernel(a, b, cutoff):
    _assert_kernels_agree(a, b, cutoff)


@pytest.mark.parametrize("a,b,cutoff", [
    ([5.0, 5.0, 5.0], [5.0, 5.0, 5.0], 50.0),        # zero distance
    ([0.0, 0.0, 0.0], [3.0, 4.0, 0.0], 5.0),         # d2 == cutoff**2
    ([0.0, 0.0, 0.0], [3.0, 4.0, 0.0], 5.0000001),   # just inside
    ([0.0, 0.0, 0.0], [BOX / 2, 0.0, 0.0], 60.0),    # half a box
    ([BOX / 2, 10.0, 0.0], [0.0, 10.0, 3.0], 60.0),  # half a box, -
    ([25.0, 75.0, 0.0], [75.0, 25.0, 50.0], 90.0),   # half on each axis
    ([1.0, 0.0, 0.0], [99.0, 0.0, 0.0], 10.0),       # wrap, low face
    ([99.0, 0.0, 0.0], [1.0, 0.0, 0.0], 10.0),       # wrap, high face
    ([0.5, 99.5, 0.25], [99.5, 0.5, 99.75], 10.0),   # wrap, both faces
], ids=["zero-distance", "on-cutoff", "inside-cutoff", "half-box",
        "half-box-negative", "half-box-every-axis", "wrap-low",
        "wrap-high", "wrap-both-faces"])
def test_scalar_kernel_corner_cases(a, b, cutoff):
    _assert_kernels_agree(a, b, cutoff)


@pytest.mark.parametrize("nmols", [4, 9, 10, 96])
def test_sequential_forces_equals_numpy_reference(nmols):
    positions = initial_positions(nmols)
    for cutoff in (BOX / 2, 1e9):
        assert np.array_equal(sequential_forces(positions, cutoff),
                              _numpy_sequential_forces(positions, cutoff))


def test_pair_force_antisymmetric():
    a = [1.0, 2.0, 3.0]
    b = [4.0, 5.0, 6.0]
    np.testing.assert_allclose(pair_force(a, b, 50.0),
                               np.negative(pair_force(b, a, 50.0)))


def test_pair_force_respects_cutoff():
    a = [0.0, 0.0, 0.0]
    b = [30.0, 0.0, 0.0]
    assert pair_force(a, b, 10.0) == (0.0, 0.0, 0.0)
    assert any(pair_force(a, b, 40.0))


def test_pair_force_periodic_wraparound():
    a = [1.0, 0.0, 0.0]
    b = [99.0, 0.0, 0.0]  # 2 apart across the boundary
    force = pair_force(a, b, 10.0)
    assert any(force)


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
            f = pair_force(positions[i].tolist(), positions[j].tolist(),
                           1e9)
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
