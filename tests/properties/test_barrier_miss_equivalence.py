"""Equivalence tests for the lazy barrier episode and the lazy miss.

Each rewritten piece is checked against the formulation it replaced:

- :meth:`repro.mem.timestamps.VectorClock.merged` (one comprehension)
  vs ``tuple(map(max, ...))``, with both identity-preserving returns;
- :meth:`repro.protocols.lazy.LazyBase._assign_requests` (a direct
  answer for a one-notice miss) vs the general assignment, copied
  here, over pending sets drawn from generated histories (the clocks
  a run can hold, ``test_causal_cone.py``): returns, both round sets
  and the raised error;
- the departure's page list (built once by ``master_combine``) vs the
  union each departing node used to rebuild from the records;
- :meth:`repro.protocols.lazy.LazyBase.apply_pending` (which resets
  the pending list when every notice was due) vs the version that
  always filtered through ``PageCopy.remove_notices``, at a node clock
  and notices drawn from generated histories.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import create_app
from repro.core import Machine, MachineConfig, NetworkConfig
from repro.mem.diffs import Diff
from repro.mem.intervals import BY_ORDER, WriteNotice
from repro.mem.timestamps import VectorClock
from repro.protocols.base import ProtocolError
from tests.properties.test_causal_cone import histories

NPROCS = 4


def make_node(protocol="li"):
    machine = Machine(MachineConfig(nprocs=NPROCS,
                                    network=NetworkConfig.ideal()),
                      protocol=protocol)
    # Striped: node 0 homes (and holds) page 0.
    machine.allocate("seg", machine.config.words_per_page * NPROCS)
    return machine.nodes[0]


# -- VectorClock.merged ----------------------------------------------------


def _reference_merged(mine, theirs):
    """The merge as ``tuple(map(max, ...))`` with the same identity
    rule: an operand that already dominates is returned itself."""
    if theirs is mine:
        return mine
    combined = tuple(map(max, mine.components, theirs.components))
    if combined == mine.components:
        return mine
    if combined == theirs.components:
        return theirs
    return VectorClock(combined)


@st.composite
def clock_pairs(draw):
    width = draw(st.integers(1, 64))
    parts = st.lists(st.integers(0, 6), min_size=width, max_size=width)
    mine = VectorClock(draw(parts))
    shape = draw(st.sampled_from(
        ["any", "mine_dominates", "theirs_dominates", "equal", "same"]))
    if shape == "same":
        return mine, mine
    theirs = draw(parts)
    if shape == "mine_dominates":
        theirs = [min(a, b) for a, b in zip(mine.components, theirs)]
    elif shape == "theirs_dominates":
        theirs = [max(a, b) for a, b in zip(mine.components, theirs)]
    elif shape == "equal":
        theirs = list(mine.components)
    return mine, VectorClock(theirs)


@settings(max_examples=300)
@given(pair=clock_pairs())
def test_merged_matches_map_max_and_keeps_identities(pair):
    mine, theirs = pair
    merged = mine.merged(theirs)
    expected = _reference_merged(mine, theirs)
    assert merged.components == expected.components
    if expected is mine:
        assert merged is mine
    elif expected is theirs:
        assert merged is theirs
    else:
        assert merged is not mine and merged is not theirs
        assert type(merged.components) is tuple


# -- LazyBase._assign_requests ---------------------------------------------


def _reference_assign_requests(self, page, pending, escalated,
                               writer_requested):
    """The assignment every miss took before the one-notice answer."""
    node = self.node
    wanted = [n for n in pending
              if n.proc != node.proc
              and not node.diff_store.has(n.proc, n.index, page)]
    for notice in wanted:
        if notice.interval_id in writer_requested:
            raise ProtocolError(
                f"node {node.proc}: writer {notice.proc} "
                f"failed to supply diff {notice.interval_id} "
                f"for page {page}")
    modifiers = [m for m in self.concurrent_last_modifiers(pending)
                 if m != node.proc]
    assignment = self._assign_wanted(wanted, modifiers, escalated,
                                     pending)
    escalated.update(n.interval_id for n in wanted)
    for target, notices in assignment.items():
        writer_requested.update(n.interval_id for n in notices
                                if n.proc == target)
    return modifiers, assignment


@st.composite
def miss_scenarios(draw):
    """0-3 pending notices of page 0, intervals of a generated history
    (own or remote writer, diff held locally or not), and the two
    round sets, possibly pre-filled."""
    history = draw(histories(NPROCS))
    ids = draw(st.lists(st.sampled_from(sorted(history.intervals)),
                        max_size=3, unique=True)
               if history.intervals else st.just([]))
    notices = history.notices(ids)
    local_diffs = [iid for iid in ids if draw(st.booleans())]
    escalated = {iid for iid in ids if draw(st.booleans())}
    writer_requested = {iid for iid in ids if draw(st.booleans())}
    return notices, local_diffs, escalated, writer_requested


def _outcome(assign, protocol, notices, escalated, writer_requested):
    escalated = set(escalated)
    writer_requested = set(writer_requested)
    try:
        modifiers, assignment = assign(protocol, 0, notices, escalated,
                                       writer_requested)
        result = (modifiers, list(assignment.items()))
    except ProtocolError as error:
        result = ("raised", str(error))
    return result, escalated, writer_requested


@settings(max_examples=400)
@given(scenario=miss_scenarios())
def test_assign_requests_matches_the_general_assignment(scenario):
    notices, local_diffs, escalated, writer_requested = scenario
    node = make_node()
    for proc, index in local_diffs:
        node.diff_store.put(proc, index, Diff(0, [], word_size=4))
    protocol = node.protocol
    got = _outcome(type(protocol)._assign_requests, protocol, notices,
                   escalated, writer_requested)
    want = _outcome(_reference_assign_requests, protocol, notices,
                    escalated, writer_requested)
    assert got == want


# -- the departure's page list ---------------------------------------------


#: Small runs with barriers: Jacobi's nodes write disjoint bands,
#: Water's share pages.
BARRIER_APPS = {"jacobi": dict(n=128, iterations=2),
                "water": dict(nmols=8, steps=1)}


@pytest.mark.parametrize("app", sorted(BARRIER_APPS))
@pytest.mark.parametrize("protocol", ["li", "lu", "lh", "ec", "ei"])
def test_departure_pages_are_the_union_of_its_records(protocol, app):
    """Every departure a node applies names, in ascending order, the
    pages its records name — what each node computed for itself."""
    machine = Machine(MachineConfig(nprocs=NPROCS,
                                    network=NetworkConfig.ideal()),
                      protocol=protocol)
    departures = []
    for node in machine.nodes:
        real = node.protocol.apply_depart

        def apply_depart(payload, real=real):
            departures.append(payload)
            return real(payload)
        node.protocol.apply_depart = apply_depart
    machine.run_app(create_app(app, **BARRIER_APPS[app]))
    assert len(departures) >= NPROCS
    assert any(payload["pages"] for payload in departures)
    for payload in departures:
        rebuilt = sorted({page for record in payload["records"]
                          for page in record.pages})
        assert payload["pages"] == rebuilt


# -- LazyBase.apply_pending ------------------------------------------------


def _reference_apply_pending(self, copy):
    """apply_pending as it was: always sorted, always filtered."""
    due = self.due_notices(copy)
    if not due:
        copy.valid = True
        return True
    get = self.node.diff_store.get
    page = copy.page
    notices = sorted(due, key=BY_ORDER)
    diffs = []
    for notice in notices:
        diff = get(notice.proc, notice.index, page)
        if diff is None:
            return False
        diffs.append(diff)
    applied = copy.applied
    for notice, diff in zip(notices, diffs):
        diff.apply(copy)
        proc = notice.proc
        if notice.index > applied.get(proc, 0):
            applied[proc] = notice.index
    copy.remove_notices({n.interval_id for n in due})
    copy.valid = True
    return True


@st.composite
def pending_scenarios(draw):
    """1-4 remote notices of page 0, intervals of a generated history,
    at node 0's clock once it has caught up with some peers: each
    notice is due or a stray at that clock, and its diff (a few
    overlapping words) is held or missing."""
    history = draw(histories(NPROCS, min_steps=10))
    if not any(proc for proc, _index in history.intervals):
        history.play("seal", draw(st.integers(1, NPROCS - 1)), 0)
    for src in draw(st.sets(st.integers(1, NPROCS - 1))):
        history.sync(0, src)
    remote = sorted(iid for iid in history.intervals if iid[0])
    ids = draw(st.lists(st.sampled_from(remote), min_size=1,
                        max_size=4, unique=True))
    clock = list(history.clock(0).components)
    entries = []
    for proc, index in ids:
        parts = list(history.intervals[proc, index].components)
        start = draw(st.integers(0, 6))
        values = draw(st.lists(st.integers(1, 99), min_size=1,
                               max_size=4))
        held = draw(st.integers(0, 9)) > 0
        entries.append((proc, index, parts, start, values, held))
    return clock, entries


def _pending_state(scenario, apply):
    clock, entries = scenario
    node = make_node()
    node.vc = VectorClock(clock)
    copy = node.pagetable.get(0)
    copy.valid = False
    for proc, index, parts, start, values, held in entries:
        copy.add_notice(WriteNotice(page=0, proc=proc, index=index,
                                    vc=VectorClock(parts)))
        if held:
            node.diff_store.put(proc, index, Diff(
                0, [(start, np.array(values, dtype=float))],
                word_size=4))
    result = apply(node.protocol, copy)
    return {"result": result,
            "pending": [n.interval_id for n in copy.pending_notices],
            "pending_ids": set(copy._pending_ids),
            "applied": dict(copy.applied),
            "bytes": bytes(copy.buffer),
            "valid": copy.valid}


@settings(max_examples=300)
@given(scenario=pending_scenarios())
def test_apply_pending_matches_the_filtering_version(scenario):
    got = _pending_state(scenario, lambda protocol, copy:
                         protocol.apply_pending(copy))
    want = _pending_state(scenario, _reference_apply_pending)
    assert got == want
    assert got["pending_ids"] == set(got["pending"])


def test_apply_pending_reset_path_is_exercised():
    """Both sides of the reset choice occur: every notice due, and a
    stray left pending."""
    outcomes = []
    for clock in ([0, 1, 1, 0], [0, 1, 0, 0]):
        scenario = (clock, [
            (1, 1, [0, 1, 0, 0], 0, [5], True),
            (2, 1, [0, 1, 1, 0], 4, [7, 8], True)])
        state = _pending_state(scenario, lambda protocol, copy:
                               protocol.apply_pending(copy))
        outcomes.append(state["pending"])
    assert outcomes == [[], [(2, 1)]]


@pytest.mark.parametrize("protocol", ["li", "lu", "lh"])
def test_held_copies_see_a_page_installed_while_suspended(protocol):
    """A resolution may yield between pages (a seal, LU's fetch); a
    page a sibling thread installs meanwhile is visited if it is still
    ahead, as a scan of the page list would find it."""
    node = make_node(protocol)
    node.pagetable.install(NPROCS, valid=False)
    assert sorted(node.pagetable.copies) == [0, NPROCS]
    pages = list(range(2 * NPROCS))
    visited = []
    for copy in node.protocol._held(pages):
        visited.append(copy.page)
        if copy.page == 0:
            node.pagetable.install(2, valid=False)
            node.pagetable.install(NPROCS + 1, valid=False)
        elif copy.page == NPROCS:
            node.pagetable.install(3, valid=False)  # behind: not seen
    assert visited == [0, 2, NPROCS, NPROCS + 1]
