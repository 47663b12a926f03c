"""Keep-it-deleted lint: one counter per fact, one frame per hop, one
dispatch loop, one way to name and execute a run, one benchmark
harness, one speedup denominator, one Lab executor, one source of a
result's numbers.

Every node- and network-level fact is counted in one registry cell
(``NetworkStats`` is a view), every tracer guard is
the attribute read ``tracer.sink.enabled``, the per-message helpers
the fused send -> wire -> deliver -> dispatch path made unnecessary
are gone, and ``sim/engine.py`` pops events in exactly one place
(``Simulator._dispatch``).  An application is named (``RunSpec.app``),
never passed as a factory callable; ``Machine.run_app`` is the one
run body and ``execute_spec`` the one place a trace sink is wired to
a run; a run's capture is part of its spec, so nothing but the lab
and ``profile`` calls ``execute_spec``.  ``benchmarks/ledger`` is the
only thing that times a run: the events/second harness, its
committed baselines and the regression sentinel that read them are
gone.  ``RunSpec.baseline()`` is the
speedup denominator and a grid of runs is a dict looked up by key;
the axis DSL, the message timeline, the span timers and the FIFO
store no root reached are gone (``test_reachability.py`` finds the
next ones).  ``Lab.run_many`` settles outcomes from one generator
(in-process or pooled): the serial/pool fork, in-run retries,
``strict=``, ``Lab.cached`` with its payload envelopes and the five
per-catalogue metric installers are gone.  A ``RunResult`` is its
registry plus each node's finish time: the ``NodeMetrics`` copy (and
``Node.metrics``), the ``network_*`` copies and the ``metric_total`` /
``metric_by`` wrappers are gone.  An access miss is counted, traced and
timed in one frame (``BaseProtocol.ensure_valid``); EC is LH with
another piggyback rule, not a second grant loop; and the lazy
machinery lives in ``LazyBase``, not in the skeleton every protocol
inherits.  Lock messages reach their ``LockManager`` handler in one
hop, protocol messages reach their handler in one hop (the node's
table holds each protocol's ``handlers()``), and an API or protocol
layer that would only ``yield from`` the next one returns its
generator instead.  A crash-stop run is a partial result by its crash
plan, not by an option, so every run (the availability study's and
the trace recorder's included) goes through ``Machine.run_app``;
the window merge and the inspection helpers only tests called are
gone.  The fault injector reads one rate tuple for
every link and injects no delay but the reorder hold; a value no run
varies is a module constant, not a config field; and the happens-before
DAG nothing walked is gone.  A crash freezes the node for its outage:
nothing is checkpointed, wiped or restored (no ``RCKP`` codec, no
snapshot, no per-protocol opt-out), and the interval record's unread
``pending_ranges``, the diff's encode memo and its ``encode`` method
(only tests called it) are gone.  A notice's place in the causal
cone is one clock component: the due memo, the per-peer clock table
and its deferred fold are gone, and no protocol walks two clocks
component by component.  This scans ``src/repro``
(comments and docstrings included — a stale mention misleads as well
as a stale call) so the second accounting path cannot grow back one
site at a time.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

#: (what it is, pattern, files exempt — relative to ``src/repro``).
FORBIDDEN = [
    ("write to a NodeMetrics field (count it in node.ins instead)",
     re.compile(r"\.metrics\.\w+\s*(?:[-+*/]=|=(?!=))"), ()),
    ("truthiness tracer guard (use `tracer.sink.enabled`)",
     re.compile(r"\b(?:if|elif|and|or|not)\s+[\w.]*tracer\s*"
                r"(?::|\band\b|\bor\b)"), ()),
    ("Node._stamp", re.compile(r"\b_stamp\b"), ()),
    ("Node._message_overhead",
     re.compile(r"\b_message_overhead\b"), ()),
    ("Node._resolve_reply", re.compile(r"\b_resolve_reply\b"), ()),
    ("NodeMetrics.record_send / NodeInstruments.record_send",
     re.compile(r"\brecord_send\b"), ()),
    ("NetworkStats.record", re.compile(r"\bstats\.record\("), ()),
    ("Network.wire_cycles (MachineConfig.wire_cycles is the model's "
     "definition; the network models inline it)",
     re.compile(r"\bdef wire_cycles\b|\bself\.wire_cycles\("),
     ("core/config.py",)),
    ("ReliableTransport._inc", re.compile(r"\b_inc\("), ()),
    ("Simulator._run_sampled (the sampler is a boundary inside the "
     "one loop)", re.compile(r"\b_run_sampled\b"), ()),
    ("Simulator.run_all (pass run_until the event to wait for)",
     re.compile(r"\brun_all\b"), ()),
    ("Simulator._flush_counters (the one loop folds its counters in "
     "its own finally)", re.compile(r"\b_flush_counters\b"), ()),
    ("second FaultInjector count of a fault (write the one cell: "
     "`self._drops.value += 1`)",
     re.compile(r"self\.(?:drops|duplicates|reorders|stalls|"
                r"stall_cycles|delay_cycles_injected)\s*\+="
                r"|_obs\[\"(?:drops|dups|reorders|delay|stalls|"
                r"stall_cycles)\"\]"), ()),
    ("app-factory callable (name the app: RunSpec.app + app_params)",
     re.compile(r"app_factory|\b_run_factory\b|\bfor_app\b"), ()),
    ("factory runner helper (build RunSpecs and use Lab.run_many)",
     re.compile(r"\brun_protocols\b|\bsequential_baseline\b"
                r"|\bspeedup_curve\b"), ()),
    ("per-subcommand list parser (cli._networks / cli._protocol_list)",
     re.compile(r"\b_serve_networks\b|\b_serve_protocols\b"), ()),
    ("first-harness artifact (the record is benchmarks/ledger's rows)",
     re.compile(r"\bBENCH_\w+"), ()),
    ("regression sentinel (an A/B verdict is benchmarks/ledger/"
     "compare.py)",
     re.compile(r"analysis\.regression|\bupdate_summary\b"), ()),
    ("committed events/second baseline",
     re.compile(r"\bcore(?:32)?_baseline\b"), ()),
    ("axis DSL (a grid is a {key: RunSpec} dict, experiments._speedups)",
     re.compile(r"\bSweep(Axis|Record)?\b"), ()),
    ("message timeline (query dsm.messages_total by msg_type)",
     re.compile(r"MessageTimeline|attach_timeline"), ()),
    ("span timers", re.compile(r"obs\.timers|\bSpan\b"), ()),
    ("FifoStore", re.compile(r"\bFifoStore\b"), ()),
    ("twin-based dirty-run detection (write tracking is the only "
     "source)", re.compile(r"twin_dirty_ranges|diff_source"), ()),
    ("hand-built speedup denominator (RunSpec.baseline())",
     re.compile(r"_baseline_spec"), ()),
    ("lock-step walk of a result list (look results up by key: "
     "lab.run_grid(cells))",
     re.compile(r"iter\(\w*\.?run_many\("), ()),
    ("second Lab executor (Lab._outcomes feeds the one settle loop)",
     re.compile(r"\b_run_serial\b|\b_run_pool\b"), ()),
    ("payload envelope (a cache entry is a run)",
     re.compile(r"payload_fingerprint|\b(?:get|put)_payload\b"), ()),
    ("Lab.cached (compute non-RunSpec work directly)",
     re.compile(r"\.cached\("), ()),
    ("in-run retry knob (a run that raised would raise again; only "
     "a broken pool's chunk is resubmitted, _POOL_RESUBMITS)",
     re.compile(r"\bretries="), ()),
    ("run_many(strict=) / Lab.failures (LabError is the one failure "
     "surface)", re.compile(r"\bstrict="), ()),
    ("per-catalogue installer (obs.install(registry, specs))",
     re.compile(r"\binstall_(?:catalog|robustness|lab|serve|mem)\b"),
     ()),
    ("NodeMetrics (a result's numbers are its registry's)",
     re.compile(r"\bNodeMetrics\b|\bnode_metrics\b"), ()),
    ("RunResult network_* copies (read the net.* series)",
     re.compile(r"\bnetwork_(?:messages|bytes|contention_cycles)\b"),
     ()),
    ("RunResult registry wrappers (call result.registry.total / "
     "by_label)",
     re.compile(r"\bmetric_total\b|\bmetric_by\b"
                r"|\bregistry_sync_messages\b"), ()),
    ("Node.metrics / Node.finish_time (node.ins holds the cells, "
     "RunResult.finish_times the finish times)",
     re.compile(r"\bdef metrics\(|\bnodes?(?:\[\w+\])?\.metrics\b"
                r"|\bfinish_time\b"), ()),
    ("lock hand-off layer (Node.bind_handlers routes lock messages to "
     "LockManager._handle_*; acquire holds its one tail; a grant "
     "observes the requester's clock)",
     re.compile(r"\block_manager\.handle\b|\b_finish_acquire\b"
                r"|\badvance_peer_clock\b"), ()),
    ("unfinished-run option (a crash-stop plan makes a partial "
     "result; any other unfinished run raises)",
     re.compile(r"\ballow_unfinished\b"), ()),
    ("Machine.completion (read RunResult.finish_times)",
     re.compile(r"\.completion\("), ()),
    ("recording proxy (RecordingMachine is a Machine)",
     re.compile(r"\b_RecordingMachine\b"), ()),
    ("window merge (k fine windows sum to a coarse one; the grid "
     "test checks it)",
     re.compile(r"\bmerge_windows\b|\blatencies_us\b"), ()),
    ("inspection helpers (tests read the state directly)",
     re.compile(r"\bpage_values\b|\.named\("), ()),
    ("per-link fault rates (one rate tuple for every link)",
     re.compile(r"\bLinkFault\b|\brates_for\b"), ()),
    ("delay fault (reorder holds are the one injected latency)",
     re.compile(r"\bdelay_prob\b"), ()),
    ("config field no driver sets (a module constant: "
     "ethernet.BACKOFF_SLOT_US, transport.RTO_US)",
     re.compile(r"\bbackoff_slot_us\b|\.rto_us\b|\brto_us\s*[:=]"), ()),
    ("happens-before DAG class (the critical path reads "
     "CausalTrace's indexes)", re.compile(r"\bCausalGraph\b"), ()),
    ("in-process run outside the lab (ask the spec for its capture: "
     "RunSpec(trace=True, window_us=...) through Lab.run; profile is "
     "the one in-process tool)", re.compile(r"\bexecute_spec\("),
     ("lab/spec.py", "lab/harness.py", "analysis/profiling.py")),
    ("trace directory and live request probes (a capture rides on "
     "RunResult; the serving columns are joined when windows are "
     "read)",
     re.compile(r"\btrace_dir\b|--trace-dir|\brecord_request\b"), ()),
    ("crash-checkpoint byte codec (a crash outage freezes the node; "
     "nothing is encoded)",
     re.compile(r"\bRCKP\b|\bCheckpointError\b"), ()),
    ("IntervalRecord.pending_ranges (seal_interval creates every diff "
     "at seal time)", re.compile(r"\bpending_ranges\b"), ()),
    ("Diff._encoded memo (nothing encodes a diff twice)",
     re.compile(r"\b_encoded\b"), ()),
    ("Diff.encode (repro.mem.wire.encode_diff is the RDIF encoder)",
     re.compile(r"\bdef encode\b"), ()),
    ("due-notice memo (a due test is one clock component, "
     "vc[q] >= i)", re.compile(r"\bdue_cache\b"), ()),
    ("peer-clock table (a node keeps one int per peer, peer_seen)",
     re.compile(r"\b_peer_vc_pending\b|\bPEER_VC_FOLD\b"
                r"|\bpeer_clock\("), ()),
    ("componentwise dominance loop outside VectorClock (a notice's "
     "place in the causal cone is vc[notice.proc] >= notice.index)",
     re.compile(r"\bzip\(mine\b"), ("mem/timestamps.py",)),
    ("per-page notice index beside the interval log (a cold miss "
     "reads the log, LazyBase.logged_notices)",
     re.compile(r"\borphan_notices\b|\bown_page_intervals\b"), ()),
    ("checkpoint (a crash outage freezes the node's processes and "
     "logs its messages; nothing is saved, wiped or restored, and no "
     "protocol opts out)",
     re.compile(r"\bcheckpoint_node\b|\bwipe_node\b|\brestore_node\b"
                r"|\bcheckpoint_state\b|\brestore_state\b"
                r"|\bsupports_checkpoint\b"), ()),
    ("protocol handle chain (Node.bind_handlers installs each "
     "protocol's handler table)",
     re.compile(r"\bprotocol\.handle\b|\bsuper\(\)\.handle\("), ()),
]

#: The first benchmark harness and the modules no root reached,
#: relative to the repo root.
DELETED_FILES = [
    "benchmarks/test_perf_core.py",
    "benchmarks/core_baseline.json",
    "benchmarks/core32_baseline.json",
    "src/repro/analysis/regression.py",
    "tests/analysis/test_regression.py",
    "src/repro/analysis/sweeps.py",
    "src/repro/analysis/timeline.py",
    "src/repro/obs/timers.py",
    "tests/analysis/test_sweeps.py",
    "tests/analysis/test_timeline.py",
]

#: (what it is, pattern, most files of ``src/repro`` it may occur in).
AT_MOST = [
    ("trace-sink wiring (ask the spec: RunSpec(trace=True), or "
     "execute_spec's trace_path=)",
     re.compile(r"Observability\(tracer=Tracer\("), 1),
    ("run body calling an application's setup (Machine.run_app)",
     re.compile(r"\.setup\("), 1),
]

#: (what it is, pattern): each occurs exactly once in sim/engine.py —
#: a second occurrence is a second dispatch loop.
ENGINE_ONCE = [
    ("heap-pop call site", re.compile(r"\bheappop\(|\bpop\(queue\)")),
    ("ready-deque pop call site", re.compile(r"\bpopleft\(\)")),
    ("copy of the pop rule",
     re.compile(r"queue\[0\]\[1\] < ready\[0\]\[0\]")),
]

#: (what it is, pattern): each occurs at exactly one site of
#: ``src/repro`` — the one access-miss frame in protocols/base.py.
MISS_FRAME_ONCE = [
    ("page-fault trace event",
     re.compile(r'emit\(\s*"protocol\.page_fault"')),
    ("fault-done trace event",
     re.compile(r'emit\(\s*"protocol\.fault_done"')),
    ("miss-wait observation", re.compile(r"\bmiss_wait\.observe\(")),
]


def _offenders(pattern, exempt):
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        if name in exempt:
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                hits.append(f"{name}:{number}: {line.strip()}")
    return hits


@pytest.mark.parametrize("what,pattern,exempt", FORBIDDEN,
                         ids=[entry[0].split(" (")[0]
                              for entry in FORBIDDEN])
def test_deleted_accounting_path_stays_deleted(what, pattern, exempt):
    assert list(SRC.rglob("*.py")), "source glob matched nothing"
    hits = _offenders(pattern, exempt)
    assert not hits, f"{what} is back:\n" + "\n".join(hits)


def test_the_first_benchmark_harness_stays_deleted():
    back = [name for name in DELETED_FILES if (ROOT / name).exists()]
    assert not back, f"deleted on purpose, and back: {back}"


@pytest.mark.parametrize("what,pattern,limit", AT_MOST,
                         ids=[entry[0].split(" (")[0]
                              for entry in AT_MOST])
def test_run_recipe_is_not_respelled(what, pattern, limit):
    files = sorted({hit.split(":")[0]
                    for hit in _offenders(pattern, ())})
    assert 1 <= len(files) <= limit, (
        f"{what}: expected at most {limit} file(s), found {files}")


@pytest.mark.parametrize("what,pattern", ENGINE_ONCE,
                         ids=[entry[0] for entry in ENGINE_ONCE])
def test_engine_has_one_dispatch_loop(what, pattern):
    source = (SRC / "sim" / "engine.py").read_text()
    hits = [line.strip() for line in source.splitlines()
            if pattern.search(line)]
    assert len(hits) == 1, (
        f"expected one {what} in sim/engine.py, found:\n"
        + "\n".join(hits))


@pytest.mark.parametrize("what,pattern", MISS_FRAME_ONCE,
                         ids=[entry[0] for entry in MISS_FRAME_ONCE])
def test_one_access_miss_frame(what, pattern):
    hits = _offenders(pattern, ())
    assert len(hits) == 1 and hits[0].startswith("protocols/base.py:"), (
        f"expected one {what}, in protocols/base.py; found:\n"
        + "\n".join(hits))


def test_protocol_families_share_one_skeleton():
    """The skeleton holds no lazy-only code, EC restates no grant loop
    and SC restates no hook default."""
    from repro.protocols.base import BaseProtocol
    from repro.protocols.sc import SequentialInvalidate
    lazy_only = {"lazy_miss", "concurrent_last_modifiers",
                 "_assign_wanted", "due_notices", "apply_pending",
                 "_serve_page_request", "_serve_diff_request",
                 "push_updates", "_handle_update_push"}
    assert not lazy_only & set(vars(BaseProtocol))
    entry = (SRC / "protocols" / "entry.py").read_text()
    assert not re.search(r"\bdef grant_payload\b", entry)
    defaults = {"on_release", "pre_barrier", "grant_payload",
                "apply_grant", "apply_depart", "barrier_arrive_payload",
                "collect_garbage"}
    assert not defaults & set(vars(SequentialInvalidate))


def test_lock_hand_off_layers_stay_deleted():
    """Lock messages reach their handler in one hop, the acquire tail
    is written once, and a grant observes the requester's clock."""
    from repro.core.node import Node
    from repro.sync.locks import LockManager
    assert not {"handle", "_finish_acquire"} & set(vars(LockManager))
    assert "advance_peer_clock" not in vars(Node)


def test_protocol_handle_chains_stay_deleted():
    """Protocol messages reach their handler through the node's table:
    no protocol family dispatches on the message kind itself."""
    from repro.protocols.base import BaseProtocol
    from repro.protocols.eager import EagerBase
    from repro.protocols.lazy import LazyBase
    from repro.protocols.sc import SequentialInvalidate
    for family in (BaseProtocol, LazyBase, EagerBase,
                   SequentialInvalidate):
        assert "handle" not in vars(family), family.__name__


#: (file under ``src/repro``, class, method): layers that only hand
#: the caller the generator below them.
PASS_THROUGH = [
    ("core/api.py", "DsmApi", "compute"),
    ("core/api.py", "DsmApi", "release"),
    ("core/api.py", "DsmApi", "barrier"),
    ("protocols/base.py", "BaseProtocol", "seal_from_app"),
    ("protocols/lazy.py", "LazyBase", "on_release"),
]


@pytest.mark.parametrize("path,cls,name", PASS_THROUGH,
                         ids=[f"{c}.{n}" for _p, c, n in PASS_THROUGH])
def test_pass_through_layers_are_not_generators(path, cls, name):
    """A method that would only ``yield from`` the next layer returns
    that layer's generator instead: one frame less per call."""
    tree = ast.parse((SRC / path).read_text())
    [klass] = [node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == cls]
    [method] = [node for node in klass.body
                if isinstance(node, ast.FunctionDef) and node.name == name]
    yields = [node for node in ast.walk(method)
              if isinstance(node, (ast.Yield, ast.YieldFrom))]
    assert not yields, (
        f"{cls}.{name} is a generator again (line {yields[0].lineno}); "
        "return the inner generator instead")
    assert isinstance(method.body[-1], ast.Return)


def test_machine_transmit_is_bound_once_not_a_method():
    """``Machine.transmit`` is an instance attribute (the transport's
    ``send`` or the network's ``transmit``), not a per-message frame
    that re-resolves its target."""
    from repro.core import Machine, MachineConfig
    assert "transmit" not in vars(Machine)
    assert "transmit" in vars(Machine(MachineConfig(nprocs=2)))


@pytest.mark.parametrize("line,index", [
    ("        node.metrics.lock_acquires += 1", 0),
    ("        self.metrics.finish_time = max(times)", 0),
    ("        if self.tracer:", 1),
    ("        if node.tracer and records:", 1),
    ("            if tracer:", 1),
    ("        elif not self._tracer:", 1),
    ("            return self._run_sampled(stop=stop)", 9),
    ("        sim.run_all(stop=self._all_finished)", 10),
    ("            self._flush_counters(dispatched, depth_peak)", 11),
    ("            self.drops += 1", 12),
    ("                self._obs[\"delay\"].inc(extra)", 12),
    ("def run_protocols(app_factory, config: MachineConfig,", 13),
    ("    def for_app(cls, name: str, params=None):", 13),
    ("    baseline = sequential_baseline(fresh_app, config)", 14),
    ("    networks = _serve_networks(args)", 15),
    ("        #: One-time pool spin-up.  BENCH_lab records it.", 16),
    ("    PYTHONPATH=src python -m repro.analysis.regression \\", 17),
    ("    update_summary(SUMMARY, \"core\", section)", 17),
    ("    baseline = root / \"benchmarks\" / \"core32_baseline.json\"",
     18),
    ("        records = Sweep(\"jacobi\", params, axes).run(lab)", 19),
    ("    timeline = attach_timeline(machine)", 20),
    ("from repro.obs.timers import Span", 21),
    ("from repro.sim.resources import FifoStore, Resource", 22),
    ("        # the protocol runs with diff_source=\"twin\").", 23),
    ("            specs.append(_baseline_spec(args))", 24),
    ("    results = iter(lab.run_many(specs))", 25),
    ("                busy_seconds = self._run_serial(to_run, resolved,",
     26),
    ("    def _run_pool(self, to_run, resolved, failed, hits: int,",
     26),
    ("    fp = payload_fingerprint(\"table1\", {\"scenario\": 1})", 27),
    ("                self.disk.put_payload(fingerprint, value,", 27),
    ("        return lab.cached(\"table1\",", 28),
    ("    lab = Lab(retries=1)", 29),
    ("        results = lab.run_many([bad, good], strict=False)", 30),
    ("        install_robustness(registry)", 31),
    ("from repro.obs import MetricsRegistry, install_lab", 31),
    ("from repro.core.metrics import NodeMetrics, RunResult", 32),
    ("            node_metrics=[node.metrics for node in self.nodes],",
     32),
    ("            network_messages=self.network.stats.messages,", 33),
    ("    total = result.metric_total(\"dsm.messages_total\")", 34),
    ("    by_type = result.metric_by(\"dsm.messages_total\", \"msg_type\")",
     34),
    ("    return result.registry_sync_messages() / total", 34),
    ("    def metrics(self) -> NodeMetrics:", 35),
    ("        assert machine.nodes[0].metrics.total_messages == 0", 35),
    ("                node.finish_time = max(times)", 35),
    ("        sync = {MsgKind.LOCK_REQ: self.lock_manager.handle,", 36),
    ("            yield from self._finish_acquire(node, state)", 36),
    ("        node.advance_peer_clock(requester, node.vc)", 36),
    ("            allow_unfinished: bool = False) -> RunResult:", 37),
    ("                finished, total = machine.completion()", 38),
    ("    shared = app.setup(_RecordingMachine(machine, trace))", 39),
    ("from repro.obs import TimeseriesSampler, Window, merge_windows",
     40),
    ("            latencies_us=latencies,", 40),
    ("    def page_values(self, page: int, proc: int) -> np.ndarray:",
     41),
    ("    arrives = sink.named(\"req.arrive\")", 41),
    ("        links=(LinkFault(src=0, dst=1, drop_prob=0.2),),", 42),
    ("        self._link_rates = {key: self.rates_for(*key)", 42),
    ("    delay_prob: float = 0.0", 43),
    ("            config.network.backoff_slot_us)", 44),
    ("        self.rto_cycles = config.us_to_cycles(tc.rto_us)", 44),
    ("    rto_us: float = 10000.0", 44),
    ("        transport=TransportConfig(rto_us=1_000.0)", 44),
    ("from repro.obs.causal import CausalGraph, CausalTrace", 45),
    ("        raise CheckpointError(f\"bad magic {magic!r}\")", 48),
    ("\"\"\"Node-state checkpointing (the ``RCKP`` format).", 48),
    ("                                pending_ranges=pending_ranges)",
     49),
    ("    blob = diff._encoded", 50),
    ("    def encode(self) -> bytes:", 51),
    ("        cached = copy.due_cache", 52),
    ("        copy.due_cache = None", 52),
    ("        pending_vcs = node._peer_vc_pending", 53),
    ("        fold_at = node.PEER_VC_FOLD", 53),
    ("        seen = {dest: node.peer_clock(dest)[me] for dest in peers}",
     53),
    ("            for a, b in zip(mine, n.vc.components):", 54),
    ("        parked = self.orphan_notices.pop(page, None)", 55),
    ("        for index in self.own_page_intervals.get(page, ()):", 55),
    ("        self._checkpoints[proc] = (checkpoint_node(node),", 56),
    ("        wipe_node(node)", 56),
    ("        node.lock_manager.restore_state(locks)", 56),
    ("    supports_checkpoint = False", 56),
    ("        self.handlers = {kind: sync.get(kind, self.protocol.handle)",
     57),
    ("        reader.protocol.handle(Message(", 57),
    ("            super().handle(message)", 57),
])
def test_the_patterns_catch_what_was_deleted(line, index):
    assert FORBIDDEN[index][1].search(line)


#: Reads of the deleted ``NodeMetrics`` view stay here as cases the
#: *write* pattern must not fire on (the view itself is caught by its
#: own entry).
@pytest.mark.parametrize("line", [
    "        if self.tracer.sink.enabled:",
    "        if tracer is not None and tracer.sink.enabled:",
    "        if node.metrics.lock_acquires == 0:",
    "            node_metrics=[node.metrics for node in self.nodes],",
])
def test_the_patterns_pass_the_current_idioms(line):
    assert not any(pattern.search(line)
                   for _what, pattern, _exempt in FORBIDDEN[:2])
