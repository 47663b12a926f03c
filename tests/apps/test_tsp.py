"""TSP application: optimality under every protocol, and the paper's
stale-minimum exploration effect."""

import numpy as np
import pytest

from repro.apps.tsp import (Tsp, city_coordinates, distance_matrix,
                            sequential_tsp)
from repro.core import MachineConfig, NetworkConfig, run_app
from repro.protocols import PROTOCOL_NAMES


def test_distance_matrix_symmetric_zero_diagonal():
    dist = distance_matrix(city_coordinates(6))
    assert np.allclose(dist, dist.T)
    assert np.allclose(np.diag(dist), 0.0)


def test_sequential_oracle_small_instance():
    # 4 cities on a unit square: optimal tour is the perimeter (4.0).
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert sequential_tsp(distance_matrix(coords)) == pytest.approx(4.0)


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_tsp_finds_optimum_all_protocols(protocol):
    config = MachineConfig(nprocs=4, network=NetworkConfig.atm())
    result = run_app(Tsp(ncities=8), config, protocol=protocol)
    # finish() raises if any processor's final minimum is wrong.
    assert result.elapsed_cycles > 0


def test_tsp_single_processor():
    result = run_app(Tsp(ncities=8), MachineConfig(nprocs=1))
    assert result.total_messages == 0


def test_tsp_stale_minimum_lazy_explores_at_least_as_much():
    """The eager protocols refresh the global minimum at every release,
    so lazy runs must explore at least as many tours (section 6.2)."""
    config = MachineConfig(nprocs=4, network=NetworkConfig.atm())
    app_eager = Tsp(ncities=9, seed=7)
    eager = run_app(app_eager, config, protocol="eu")
    app_lazy = Tsp(ncities=9, seed=7)
    lazy = run_app(app_lazy, config, protocol="li")
    assert (app_lazy.total_explored(lazy)
            >= app_eager.total_explored(eager))


def test_tsp_queue_lock_contention_recorded():
    config = MachineConfig(nprocs=4, network=NetworkConfig.atm())
    result = run_app(Tsp(ncities=8), config, protocol="lh")
    assert result.lock_wait_cycles > 0
    assert result.registry.total("sync.lock_acquires_total") > 8
