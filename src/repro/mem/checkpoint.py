"""Node-state checkpointing for crash recovery.

When the lifecycle manager crashes a node (:mod:`repro.sim.lifecycle`)
it snapshots the node's DSM state, wipes the node, and at recovery
restores the snapshot — the way the sync layer saves its lock and
barrier state (``checkpoint_state`` / ``restore_state``).  The snapshot
is a plain dict: immutable values (vector clocks, write notices,
interval records, diffs, twin ``bytes``) are held by reference, and
every container :func:`wipe_node` clears is copied.  Restore refills
the node *in place*: container and :class:`~repro.mem.pages.PageCopy`
object identities are preserved, because application/protocol
continuations frozen at the crash instant may hold references across
their paused yields.

tests/mem pin the round trip (checkpoint -> wipe -> restore -> equal
re-checkpoint).
"""

from __future__ import annotations

from repro.mem.pages import PageCopy
from repro.mem.timestamps import VectorClock


def _page_state(copy: PageCopy) -> dict:
    return {
        "buffer": copy.snapshot(),
        "valid": copy.valid,
        "twin": copy.twin,
        "vc": copy.vc,
        "written": list(copy.written),
        "applied": dict(copy.applied),
        "pending_notices": list(copy.pending_notices),
    }


def checkpoint_node(node) -> dict:
    """Snapshot ``node``'s complete DSM state."""
    protocol = node.protocol
    if not getattr(protocol, "supports_checkpoint", False):
        name = getattr(protocol, "name", protocol)
        raise ValueError(
            f"protocol {name!r} does not support checkpointing")
    # The eager protocols' pages being fetched, and the flushes parked
    # on them until the fetch installs (None for the lazy family).
    eager = hasattr(protocol, "_miss_in_flight")
    return {
        "vc": node.vc,
        "peer_seen": list(node.peer_seen),
        "pages": {page: _page_state(copy)
                  for page, copy in node.pagetable.copies.items()},
        # Insertion order: a cold miss reads the log in this order.
        "intervals": list(node.interval_log._records.values()),
        "diffs": dict(node.diff_store._diffs),
        "copysets": node.copysets.items(),
        "unpropagated": {iid: set(pages) for iid, pages
                         in protocol.unpropagated.items()},
        "last_barrier_vc": protocol.last_barrier_vc,
        "gc_prunable_vc": protocol._gc_prunable_vc,
        "miss_in_flight": (set(protocol._miss_in_flight) if eager
                           else None),
        "poison_records": ({page: list(parked) for page, parked
                            in protocol._poison_records.items()}
                           if eager else None),
    }


def wipe_node(node) -> None:
    """Erase the node's DSM state in place, modeling the memory loss
    of a crash.  Container objects (and existing ``PageCopy``
    instances, as invalid husks) keep their identity so that frozen
    continuations stay wired to whatever :func:`restore_node` refills;
    every data field is cleared so nothing can survive a restore
    except through the checkpoint."""
    for copy in node.pagetable.copies.values():
        copy.buffer[:] = bytes(len(copy.buffer))
        copy.twin = None
        copy.valid = False
        copy.written = []
        copy.pending_notices = []
        copy.vc = None
        copy.applied = {}
    log = node.interval_log
    log._records.clear()
    log._by_proc.clear()
    node.diff_store._diffs.clear()
    node.copysets.clear()
    nprocs = node.config.nprocs
    node.vc = VectorClock.zero(nprocs)
    node.peer_seen[:] = [0] * nprocs
    protocol = node.protocol
    protocol.unpropagated.clear()
    protocol._dirty_pages.clear()
    protocol.last_barrier_vc = VectorClock.zero(nprocs)
    protocol._gc_prunable_vc = None
    if hasattr(protocol, "_miss_in_flight"):
        protocol._miss_in_flight.clear()
        protocol._poison_records.clear()


def restore_node(node, snapshot: dict) -> None:
    """Refill ``node`` from a :func:`checkpoint_node` snapshot.  The
    node is wiped first, so the restored state is a function of the
    snapshot alone; containers are copied again, so the snapshot stays
    as it was taken."""
    wipe_node(node)
    protocol = node.protocol
    node.vc = snapshot["vc"]
    node.peer_seen[:] = snapshot["peer_seen"]
    # The wipe left every page copy in place as a husk, so each saved
    # page refills its own PageCopy object.
    copies = node.pagetable.copies
    for page, state in snapshot["pages"].items():
        copy = copies[page]
        copy.set_values(state["buffer"])
        copy.valid = state["valid"]
        copy.twin = state["twin"]
        copy.vc = state["vc"]
        copy.written = list(state["written"])
        if copy.written:
            # Keep the protocol's dirty-page index (which seals scan
            # instead of the whole page table) in sync with restored
            # written ranges.
            protocol._dirty_pages.add(page)
        copy.applied = dict(state["applied"])
        copy.pending_notices = list(state["pending_notices"])
    for record in snapshot["intervals"]:
        node.interval_log.add(record)
    node.diff_store._diffs.update(snapshot["diffs"])
    for page, mask in snapshot["copysets"]:
        node.copysets.merge(page, mask)
    for iid, pages in snapshot["unpropagated"].items():
        protocol.unpropagated[iid] = set(pages)
    protocol.last_barrier_vc = snapshot["last_barrier_vc"]
    protocol._gc_prunable_vc = snapshot["gc_prunable_vc"]
    if snapshot["miss_in_flight"] is not None:
        protocol._miss_in_flight.update(snapshot["miss_in_flight"])
        for page, parked in snapshot["poison_records"].items():
            protocol._poison_records[page] = list(parked)
