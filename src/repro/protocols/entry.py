"""Entry-consistency-flavored protocol ('ec', Midway-style).

The paper's related work contrasts release consistency with Bershad &
Zekauskas's *entry consistency*: "On a lock acquisition EC only needs
to propagate the shared data associated with the lock", at the price
of requiring the programmer to bind every piece of shared data to a
synchronization object (`Machine.bind_lock`).

This implementation grafts that propagation rule onto the LRC
substrate: a lock grant piggybacks diffs for exactly the pages *bound*
to that lock (regardless of copyset guesses), and nothing else.  Pages
named by unbound write notices fall back to invalidate-on-notice, which
is *stronger* than Midway (real EC gives unbound data no guarantees at
all), so improperly-annotated programs still run correctly here — they
just pay LI-like miss costs for whatever they forgot to bind.  Barriers
behave as in LH (push + notices), matching Midway's treatment of
global synchronization.
"""

from __future__ import annotations

from repro.protocols.lazy import LazyHybrid


class EntryConsistency(LazyHybrid):
    """'ec': LH whose grants move exactly the lock's bound data."""

    name = "ec"
    piggyback_policy = "bound"
