"""Vector timestamps for the happened-before-1 partial order.

Write notices are tagged with vector times (Keleher et al., ISCA 1992);
dominance between vector times encodes whether one shared-memory
modification precedes another under happened-before-1.
"""

from __future__ import annotations

from typing import Iterable, Tuple


class VectorClock:
    """Immutable vector of per-processor interval indices."""

    __slots__ = ("components", "_total")

    def __init__(self, components: Iterable[int]) -> None:
        object.__setattr__(self, "components", tuple(int(c)
                                                     for c in components))
        object.__setattr__(self, "_total", -1)

    @classmethod
    def _of(cls, components: Tuple[int, ...]) -> "VectorClock":
        """Internal fast constructor: ``components`` must already be a
        tuple of ints.  Skips __init__'s coercion pass — clocks are
        allocated on every interval seal and clock merge."""
        clock = object.__new__(cls)
        object.__setattr__(clock, "components", components)
        object.__setattr__(clock, "_total", -1)
        return clock

    @staticmethod
    def zero(nprocs: int) -> "VectorClock":
        return VectorClock._of((0,) * nprocs)

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, proc: int) -> int:
        return self.components[proc]

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("VectorClock is immutable")

    def incremented(self, proc: int) -> "VectorClock":
        parts = self.components
        return VectorClock._of(parts[:proc] + (parts[proc] + 1,)
                               + parts[proc + 1:])

    def merged(self, other: "VectorClock") -> "VectorClock":
        if other is self:
            return self
        mine = self.components
        theirs = other.components
        if len(mine) != len(theirs):
            self._check(other)
        # One comparison per component: map(max, ...) would make a
        # builtin call for each, about twice the cost at width 32.
        combined = tuple([a if a >= b else b for a, b in zip(mine, theirs)])
        # Identity-preserving: when one side already dominates, return
        # that clock instead of an equal new one, so the ``_total``
        # memo survives with it.
        if combined == mine:
            return self
        if combined == theirs:
            return other
        return VectorClock._of(combined)

    def dominates(self, other: "VectorClock") -> bool:
        """True iff self >= other componentwise."""
        if other is self:
            return True
        mine = self.components
        theirs = other.components
        if len(mine) != len(theirs):
            self._check(other)
        for a, b in zip(mine, theirs):
            if a < b:
                return False
        return True

    def total(self) -> int:
        """Sum of components: any linear extension key of hb1 (if
        a strictly-dominates b then a.total() > b.total()).  Cached —
        it is the sort key for every record ordering."""
        total = self._total
        if total < 0:
            total = sum(self.components)
            object.__setattr__(self, "_total", total)
        return total

    def _check(self, other: "VectorClock") -> None:
        if len(self.components) != len(other.components):
            raise ValueError("vector clock size mismatch: "
                             f"{len(self)} vs {len(other)}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, VectorClock)
                and self.components == other.components)

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        return f"VC{self.components}"
