"""Unit tests for application internals: partitioning, TSP queue
mechanics, Cholesky symbolic structures, Water layout."""

import numpy as np
import pytest

from repro.apps import create_app
from repro.apps.base import block_range
from repro.apps.cholesky import Cholesky, grid_laplacian
from repro.apps.tsp import Tsp
from repro.apps.water import MOL_WORDS, Water
from repro.core import DsmApi, Machine, MachineConfig, NetworkConfig


class TestBlockRange:
    def test_even_partition(self):
        blocks = [block_range(12, 4, p) for p in range(4)]
        assert [list(b) for b in blocks] == [[0, 1, 2], [3, 4, 5],
                                             [6, 7, 8], [9, 10, 11]]

    def test_uneven_partition_covers_everything_once(self):
        covered = []
        for proc in range(5):
            covered.extend(block_range(13, 5, proc))
        assert covered == list(range(13))

    def test_more_procs_than_items(self):
        sizes = [len(block_range(3, 8, p)) for p in range(8)]
        assert sum(sizes) == 3
        assert max(sizes) <= 1 or sum(sizes) == 3


class TestRegistry:
    def test_create_app_by_name(self):
        app = create_app("water", nmols=8)
        assert app.nmols == 8

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="unknown application"):
            create_app("doom")


class TestTspQueue:
    def run_queue_ops(self):
        """Push/pop through the DSM on one processor."""
        app = Tsp(ncities=6)
        machine = Machine(MachineConfig(nprocs=1))
        shared = app.setup(machine)
        popped = []

        def worker(api, proc):
            yield from api.acquire(0)
            yield from app._push_tour(api, shared, [0, 2], 10.0)
            yield from app._push_tour(api, shared, [0, 3, 1], 20.0)
            first = yield from app._pop_tour(api, shared)
            second = yield from app._pop_tour(api, shared)
            third = yield from app._pop_tour(api, shared)
            yield from api.release(0)
            popped.extend([first, second, third])

        machine.run(lambda p: worker(DsmApi(machine.nodes[p]), p))
        return popped

    def test_lifo_order_and_payload(self):
        first, second, third = self.run_queue_ops()
        assert first == ([0, 3, 1], 20.0)
        assert second == ([0, 2], 10.0)
        assert third is None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Tsp(ncities=2)
        with pytest.raises(ValueError):
            Tsp(ncities=25)


class TestCholeskyStructures:
    def test_laplacian_values_break_symmetry(self):
        a = grid_laplacian(3)
        assert a[0, 0] != a[1, 1] or a[1, 1] != a[2, 2]

    def test_column_slots_cover_matrix(self):
        app = Cholesky(k=3)
        machine = Machine(MachineConfig(nprocs=1))
        shared = app.setup(machine)
        assert shared.col_ptr[-1] == sum(
            1 + len(s) for s in shared.structs)
        # Initial column slots hold A's entries.
        page = shared.cols_seg.first_page
        copy = machine.nodes[0].pagetable.get(page)
        assert copy.values[shared.col_ptr[0]] == app.a[0, 0]

    def test_update_counters_match_structures(self):
        app = Cholesky(k=3)
        machine = Machine(MachineConfig(nprocs=1))
        shared = app.setup(machine)
        meta_page = shared.meta_seg.first_page
        counters = machine.nodes[0].pagetable.get(meta_page).values
        for j in range(app.n):
            expected = sum(1 for k in range(j)
                           if j in shared.structs[k])
            assert counters[2 + j] == expected

    def test_k_validation(self):
        with pytest.raises(ValueError):
            Cholesky(k=1)


class TestWaterLayout:
    def test_molecule_slots_do_not_overlap(self):
        app = Water(nmols=10, steps=1)
        machine = Machine(MachineConfig(nprocs=1))
        shared = app.setup(machine)
        page = shared.pos_seg.first_page
        values = machine.nodes[0].pagetable.get(page).values
        for i in range(app.nmols):
            np.testing.assert_allclose(
                values[i * MOL_WORDS:i * MOL_WORDS + 3],
                app.positions[i])

    def test_minimum_molecules(self):
        with pytest.raises(ValueError):
            Water(nmols=2)

    def test_false_sharing_by_construction(self):
        """Many molecules per page: the paper's stress condition."""
        app = Water(nmols=64, steps=1)
        machine = Machine(MachineConfig(nprocs=1))
        shared = app.setup(machine)
        per_page = machine.config.words_per_page // MOL_WORDS
        assert per_page >= 64  # all 64 molecules share one page
        assert shared.force_seg.npages == 1


class TestPythonIntIdentifiers:
    """Lock ids and page numbers reach the protocols as Python ints:
    a numpy scalar keys the same dicts but is written to a trace as a
    string, and costs more to hash and compare."""

    SMALL = {"jacobi": dict(n=24, iterations=2),
             "tsp": dict(ncities=7),
             "water": dict(nmols=12, steps=1),
             "cholesky": dict(k=4),
             "kvstore": dict(nkeys=16, value_words=8, shards=4,
                             requests=60)}

    @pytest.mark.parametrize("protocol", ["li", "lh"])
    @pytest.mark.parametrize("app", sorted(SMALL))
    def test_logged_pages_and_lock_keys_are_ints(self, app, protocol):
        machine = Machine(MachineConfig(nprocs=4,
                                        network=NetworkConfig.atm()),
                          protocol=protocol)
        machine.run_app(create_app(app, **self.SMALL[app]))
        pages = [page for node in machine.nodes
                 for record in node.interval_log._records.values()
                 for page in record.pages]
        locks = [lock for node in machine.nodes
                 for lock in node.lock_manager._locks]
        assert pages
        assert {type(page) for page in pages} == {int}
        assert {type(lock) for lock in locks} <= {int}
