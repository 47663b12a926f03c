"""Cholesky application: numeric correctness and grain behaviour."""

import numpy as np
import pytest

from repro.apps.cholesky import (Cholesky, grid_laplacian,
                                 sequential_cholesky,
                                 symbolic_factorization)
from repro.core import MachineConfig, NetworkConfig, run_app
from repro.protocols import PROTOCOL_NAMES


def test_grid_laplacian_is_spd():
    a = grid_laplacian(4)
    assert np.allclose(a, a.T)
    assert np.linalg.eigvalsh(a).min() > 0


def test_sequential_cholesky_oracle():
    a = grid_laplacian(3)
    l = sequential_cholesky(a)
    np.testing.assert_allclose(l @ l.T, a, atol=1e-10)
    assert np.allclose(l, np.tril(l))


def test_symbolic_factorization_covers_numeric_fill():
    a = grid_laplacian(4)
    structs = symbolic_factorization(a)
    l = sequential_cholesky(a)
    for j in range(len(a)):
        numeric_rows = set(np.nonzero(np.abs(l[j + 1:, j]) > 1e-12)[0]
                           + j + 1)
        assert numeric_rows <= set(structs[j]), f"column {j}"


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_cholesky_factors_correctly_all_protocols(protocol):
    config = MachineConfig(nprocs=4, network=NetworkConfig.atm())
    result = run_app(Cholesky(k=4), config, protocol=protocol)
    # finish() verifies L L^T == A and that all columns were factored.
    assert result.elapsed_cycles > 0


def test_cholesky_single_processor():
    result = run_app(Cholesky(k=3), MachineConfig(nprocs=1))
    assert result.total_messages == 0


def test_cholesky_synchronization_dominates():
    """Fine grain: lock traffic must dwarf everything else, and most
    messages must be synchronization (paper: 96%)."""
    config = MachineConfig(nprocs=4, network=NetworkConfig.atm())
    result = run_app(Cholesky(k=5), config, protocol="lh")
    assert result.sync_messages / result.total_messages > 0.5
    acquires = result.registry.total("sync.lock_acquires_total")
    assert acquires > result.nprocs * 25  # n + cmod locks at least


def test_cholesky_poor_speedup():
    """The headline: fine-grained synchronization caps the speedup at
    a small value regardless of processor count."""
    base = run_app(Cholesky(k=5), MachineConfig(nprocs=1))
    par = run_app(Cholesky(k=5),
                  MachineConfig(nprocs=8, network=NetworkConfig.atm()),
                  protocol="lh")
    speedup = base.elapsed_cycles / par.elapsed_cycles
    assert speedup < 3.0, f"Cholesky sped up {speedup:.2f}x?!"
