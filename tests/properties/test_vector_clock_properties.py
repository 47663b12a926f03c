"""Property-based tests for vector timestamps (hypothesis)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.mem.timestamps import VectorClock


def strictly_dominates(a, b):
    """``b`` happened before ``a``: a >= b and a != b."""
    return a.dominates(b) and a != b


def concurrent_with(a, b):
    return not a.dominates(b) and not b.dominates(a)


clock = st.lists(st.integers(0, 50), min_size=4,
                 max_size=4).map(VectorClock)


@given(clock)
def test_dominates_is_reflexive(a):
    assert a.dominates(a)
    assert not strictly_dominates(a, a)


@given(clock, clock)
def test_dominance_is_antisymmetric(a, b):
    if a.dominates(b) and b.dominates(a):
        assert a == b


@given(clock, clock, clock)
def test_dominance_is_transitive(a, b, c):
    if a.dominates(b) and b.dominates(c):
        assert a.dominates(c)


@given(clock, clock)
def test_merge_is_least_upper_bound(a, b):
    merged = a.merged(b)
    assert merged.dominates(a)
    assert merged.dominates(b)
    # No smaller clock dominates both: the merge takes each component
    # from one of the operands.
    for i, component in enumerate(merged.components):
        assert component in (a[i], b[i])


@given(clock, clock)
def test_merge_commutative_idempotent(a, b):
    assert a.merged(b) == b.merged(a)
    assert a.merged(a) == a


@given(clock, st.integers(0, 3))
def test_increment_strictly_dominates(a, proc):
    bumped = a.incremented(proc)
    assert strictly_dominates(bumped, a)
    assert bumped.total() == a.total() + 1


@given(clock, clock)
def test_total_is_linear_extension(a, b):
    """The apply-order key: strict dominance implies a larger total,
    so sorting by totals never applies an hb1-later diff first."""
    if strictly_dominates(a, b):
        assert a.total() > b.total()


@given(clock, clock)
def test_concurrency_is_symmetric(a, b):
    assert concurrent_with(a, b) == concurrent_with(b, a)
    # Exactly one of: equal, a->b, b->a, concurrent.
    relations = [a == b,
                 strictly_dominates(a, b),
                 strictly_dominates(b, a),
                 concurrent_with(a, b)]
    assert sum(relations) == 1
