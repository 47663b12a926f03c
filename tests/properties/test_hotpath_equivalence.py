"""Property tests pinning the hot-path rewrites to their oracles.

Each optimized structure on the protocol critical path has a slow,
obviously-correct formulation; Hypothesis drives both through random
operation sequences and demands equality (docs/performance.md):

- :meth:`repro.mem.pages.PageCopy.record_write` (incremental run
  merge) vs append-everything-then-:func:`normalize_ranges`;
- :meth:`repro.mem.intervals.IntervalLog.records_after` (per-proc
  bisect index) vs a flat scan of the whole log;
- :meth:`repro.protocols.lazy.LazyBase.due_notices` (one clock
  component per notice) vs a dominance filter, across notice arrivals
  interleaved with a node's clock advances in a generated history
  (the one-component rule holds for reachable clocks only:
  ``test_causal_cone.py``);
- :meth:`repro.mem.intervals.IntervalLog.prune_dominated` (interval
  GC) vs the unpruned log, for every acquirer clock the GC safety
  argument admits;
- :func:`repro.mem.wire.encode_diff` vs an independent struct-level
  encoding of the documented RDIF layout;
- :class:`repro.mem.copyset.CopysetTable` (one int mask per page,
  masks on the wire) vs a plain ``dict[int, set[int]]``, at widths
  past 64 processors.
"""

import struct
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.copyset import CopysetTable
from repro.mem.diffs import Diff, normalize_ranges
from repro.mem.intervals import IntervalLog, IntervalRecord, WriteNotice
from repro.mem.pages import PageCopy
from repro.mem.timestamps import VectorClock
from repro.mem.wire import encode_diff
from repro.protocols.lazy import LazyBase
from tests.properties.test_causal_cone import histories

PAGE_WORDS = 64

ranges_lists = st.lists(
    st.tuples(st.integers(0, PAGE_WORDS - 1),
              st.integers(1, 16)).map(
        lambda se: (se[0], min(PAGE_WORDS, se[0] + se[1]))),
    max_size=30)


@given(ranges=ranges_lists)
def test_record_write_matches_normalize_oracle(ranges):
    copy = PageCopy(page=0, words=PAGE_WORDS)
    for start, end in ranges:
        copy.record_write(start, end)
    assert copy.written == normalize_ranges(ranges)
    # Sorted and pairwise disjoint, as take_written_ranges relies on.
    for (_, e1), (s2, _) in zip(copy.written, copy.written[1:]):
        assert e1 < s2


@st.composite
def interval_batches(draw):
    nprocs = draw(st.integers(2, 4))
    entries = draw(st.lists(
        st.tuples(st.integers(0, nprocs - 1), st.integers(1, 12)),
        min_size=1, max_size=25))
    # Give (proc, index) a plausible clock: index at own position,
    # arbitrary small knowledge of the others.
    records = []
    for proc, index in entries:
        components = [draw(st.integers(0, 12)) for _ in range(nprocs)]
        components[proc] = index
        records.append(IntervalRecord(
            proc=proc, index=index, vc=VectorClock(components),
            pages=frozenset(draw(st.sets(st.integers(0, 5),
                                         max_size=3)))))
    query = VectorClock([draw(st.integers(0, 12))
                         for _ in range(nprocs)])
    return records, query


@given(batch=interval_batches())
def test_records_after_matches_flat_scan(batch):
    records, query = batch
    log = IntervalLog()
    for record in records:
        log.add(record)
    first_seen = {}
    for record in records:       # log.add keeps the first duplicate
        first_seen.setdefault(record.interval_id, record)
    oracle = sorted(
        (r for r in first_seen.values() if r.index > query[r.proc]),
        key=lambda r: (r.vc.total(), r.proc, r.index))
    assert log.records_after(query) == oracle


@st.composite
def notice_scripts(draw):
    """A generated history, the node that receives its notices (and
    catches up with some peers at the end), and the node's clock
    advances interleaved with notice arrivals: every
    interval of another processor, in any order, so a pushed stray
    may arrive long before it is due."""
    history = draw(histories(min_steps=10))
    me = draw(st.integers(0, history.nprocs - 1))
    for src in draw(st.sets(st.integers(0, history.nprocs - 1))):
        if src != me:
            history.sync(me, src)
    arrivals = draw(st.permutations(
        [iid for iid in sorted(history.intervals) if iid[0] != me]))
    advances = history.trajectories[me][1:]
    steps = []
    while arrivals or advances:
        if arrivals and (not advances or draw(st.booleans())):
            proc, index = arrivals.pop(0)
            steps.append(("notice", WriteNotice(
                page=0, proc=proc, index=index,
                vc=history.intervals[proc, index])))
        else:
            steps.append(("advance", advances.pop(0)))
    return history.nprocs, steps


@given(script=notice_scripts())
@settings(max_examples=200)
def test_due_notices_match_the_dominance_filter(script):
    nprocs, steps = script
    node = SimpleNamespace(vc=VectorClock.zero(nprocs))
    protocol = SimpleNamespace(node=node)
    copy = PageCopy(page=0, words=PAGE_WORDS)

    def naive():
        return [n for n in copy.pending_notices
                if node.vc.dominates(n.vc)]

    for kind, value in steps:
        if kind == "notice":
            copy.add_notice(value)
        else:
            node.vc = value
        # Same notices, same (pending-list) order, after every step.
        assert LazyBase.due_notices(protocol, copy) == naive()


# -- interval-log GC vs the unpruned log -------------------------------


@st.composite
def gc_scenarios(draw):
    """A log, a GC threshold clock, and an acquirer clock that
    dominates the threshold (the only clocks the GC safety argument
    must serve: after a barrier every processor's clock dominates the
    pruned history)."""
    nprocs = draw(st.integers(2, 4))
    records = []
    for proc, index in draw(st.lists(
            st.tuples(st.integers(0, nprocs - 1), st.integers(1, 12)),
            min_size=1, max_size=25)):
        components = [draw(st.integers(0, 12)) for _ in range(nprocs)]
        components[proc] = index
        records.append(IntervalRecord(
            proc=proc, index=index, vc=VectorClock(components),
            pages=frozenset(draw(st.sets(st.integers(0, 5),
                                         max_size=3)))))
    gc_vc = VectorClock([draw(st.integers(0, 12))
                         for _ in range(nprocs)])
    query = gc_vc.merged(VectorClock(
        [draw(st.integers(0, 12)) for _ in range(nprocs)]))
    return nprocs, records, gc_vc, query


@given(scenario=gc_scenarios())
@settings(max_examples=200)
def test_pruned_log_matches_unpruned_for_dominating_clocks(scenario):
    nprocs, records, gc_vc, query = scenario
    pruned = IntervalLog()
    oracle = IntervalLog()
    for record in records:
        pruned.add(record)
        oracle.add(record)
    dropped = pruned.prune_dominated(gc_vc)
    # Only records below the threshold may disappear...
    assert all(gc_vc.dominates(oracle.get(iid).vc) for iid in dropped)
    # ...and any acquirer whose clock dominates the threshold sees
    # exactly what the never-pruned log would send it.
    assert pruned.records_after(query) == oracle.records_after(query)
    assert pruned.records_after(gc_vc) == oracle.records_after(gc_vc)


# -- RDIF encoding vs a struct-level oracle encoding -------------------


@st.composite
def diffs_(draw):
    """A random valid diff: sorted runs with at least one word of gap
    (the decoder rejects touching runs), float64 payload."""
    nruns = draw(st.integers(1, 5))
    cursor = 0
    starts, counts, values = [], [], []
    for _ in range(nruns):
        start = cursor + draw(st.integers(1, 4))
        count = draw(st.integers(1, 4))
        cursor = start + count
        starts.append(start)
        counts.append(count)
        values.extend(draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False,
                      width=32),
            min_size=count, max_size=count)))
    payload = np.asarray(values, dtype=np.float64).tobytes()
    return Diff.from_flat(draw(st.integers(0, 500)), tuple(starts),
                          tuple(counts), payload,
                          word_size=draw(st.sampled_from((4, 8))))


def _oracle_encode(diff):
    """Independent rendering of the documented RDIF layout
    (docs/memory.md): header, run table, payload."""
    parts = [struct.pack("<4sBBHII", b"RDIF", 1, diff.word_size, 0,
                         diff.page, len(diff.starts))]
    parts += [struct.pack("<II", start, count)
              for start, count in zip(diff.starts, diff.counts)]
    parts.append(diff.payload)
    return b"".join(parts)


@given(diff=diffs_())
@settings(max_examples=200)
def test_encode_diff_matches_oracle_encoding(diff):
    assert encode_diff(diff) == _oracle_encode(diff)


# -- copyset bitmasks vs a dict-of-sets model ---------------------------

@st.composite
def copyset_scripts(draw):
    nprocs = draw(st.integers(1, 96))
    self_proc = draw(st.integers(0, nprocs - 1))
    page = st.integers(0, 5)
    proc = st.integers(0, nprocs - 1)
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("add"), page, proc),
        st.tuples(st.just("merge"), page,
                  st.sets(proc, max_size=nprocs)),
        st.tuples(st.just("remove"), page, proc),
        st.tuples(st.just("believes_cached"), page, proc),
        st.tuples(st.just("others_mask"), page, st.none())),
        max_size=40))
    return nprocs, self_proc, ops


def _members(mask):
    return {proc for proc in range(mask.bit_length())
            if mask >> proc & 1}


@given(script=copyset_scripts())
@settings(max_examples=200)
def test_copyset_masks_match_dict_of_sets_model(script):
    nprocs, self_proc, ops = script
    table = CopysetTable(self_proc)
    model = {}
    for op, page, arg in ops:
        if op == "add":
            table.add(page, arg)
            model.setdefault(page, set()).add(arg)
        elif op == "merge":
            table.merge(page, sum(1 << proc for proc in arg))
            model.setdefault(page, set()).update(arg)
        elif op == "remove":
            table.remove(page, arg)
            model.get(page, set()).discard(arg)
        elif op == "believes_cached":
            assert table.believes_cached(page, arg) \
                == (arg in model.get(page, ()))
        else:
            assert _members(table.others_mask(page)) \
                == model.get(page, set()) - {self_proc}
    for page in range(6):
        assert _members(table.mask(page)) == model.get(page, set())
