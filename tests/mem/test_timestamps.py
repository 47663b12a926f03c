"""Unit tests for vector timestamps."""

import pytest

from repro.mem.timestamps import VectorClock


def strictly_dominates(a, b):
    """``b`` happened before ``a``: a >= b and a != b."""
    return a.dominates(b) and a != b


def concurrent_with(a, b):
    return not a.dominates(b) and not b.dominates(a)


def test_zero_and_indexing():
    vc = VectorClock.zero(4)
    assert len(vc) == 4
    assert vc[2] == 0


def test_immutability():
    vc = VectorClock.zero(2)
    with pytest.raises(AttributeError):
        vc.components = (1, 2)


def test_incremented_returns_new_clock():
    vc = VectorClock.zero(3)
    vc2 = vc.incremented(1)
    assert vc2.components == (0, 1, 0)
    assert vc.components == (0, 0, 0)


def test_merge_componentwise_max():
    a = VectorClock((3, 0, 5))
    b = VectorClock((1, 4, 2))
    assert a.merged(b).components == (3, 4, 5)


def test_dominance_and_concurrency():
    a = VectorClock((1, 2))
    b = VectorClock((1, 1))
    c = VectorClock((0, 3))
    assert a.dominates(b)
    assert strictly_dominates(a, b)
    assert not b.dominates(a)
    assert concurrent_with(a, c)
    assert a.dominates(a)
    assert not strictly_dominates(a, a)


def test_total_is_linear_extension():
    a = VectorClock((1, 2))
    b = VectorClock((2, 2))
    assert strictly_dominates(b, a)
    assert b.total() > a.total()


def test_size_mismatch_raises():
    with pytest.raises(ValueError):
        VectorClock((1,)).merged(VectorClock((1, 2)))


def test_equality_and_hash():
    assert VectorClock((1, 2)) == VectorClock((1, 2))
    assert hash(VectorClock((1, 2))) == hash(VectorClock((1, 2)))
    assert VectorClock((1, 2)) != VectorClock((2, 1))
