"""The metrics catalogue: every standard metric the simulator emits.

Each :class:`MetricSpec` names one metric, its type, unit, label set,
and the paper artifact(s) that consume it.  ``docs/observability.md``
renders this catalogue for humans, and ``tests/docs`` asserts the two
stay in sync.

Naming convention: ``<layer>.<quantity>[_total]`` — ``_total`` marks a
monotonic counter; histograms and gauges drop the suffix.  Layers:

- ``sim``  — the discrete-event kernel,
- ``net``  — the wire (Ethernet / ATM / ideal),
- ``dsm``  — per-node protocol activity (misses, diffs, notices),
- ``sync`` — locks and barriers,
- ``cpu``  — where processor cycles went,
- ``mem``  — the memory substrate (opt-in, see :data:`MEM_CATALOG`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"


@dataclass(frozen=True)
class MetricSpec:
    """Static description of one metric."""

    name: str
    kind: str
    unit: str
    description: str
    labels: Tuple[str, ...] = ()
    consumers: Tuple[str, ...] = ()
    #: Histogram bucket bounds; empty means the registry's cycle-
    #: scaled ``DEFAULT_BUCKETS``.
    buckets: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (COUNTER, GAUGE, HISTOGRAM):
            raise ValueError(f"bad metric kind {self.kind!r}")


def _spec(name, kind, unit, description, labels=(), consumers=(),
          buckets=()):
    return MetricSpec(name=name, kind=kind, unit=unit,
                      description=description, labels=tuple(labels),
                      consumers=tuple(consumers), buckets=buckets)


#: Checkpoint blobs run page-sized to megabytes, so the cycle-scaled
#: default histogram buckets would be useless for them.
CRASH_BYTE_BUCKETS: Tuple[float, ...] = (
    1024, 4096, 16384, 65536, 262144, 1048576, 4194304)

#: Bucket bounds for the mem histograms: diffs are small discrete
#: objects (runs, bytes), so the cycle-scaled default buckets would
#: dump everything into the first bucket.
MEM_RUN_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64)
MEM_BYTE_BUCKETS: Tuple[float, ...] = (
    64, 256, 1024, 4096, 16384, 65536)


#: Every standard metric, in catalogue order.
CATALOG: Tuple[MetricSpec, ...] = (
    # -- sim -----------------------------------------------------------
    _spec("sim.events_dispatched_total", COUNTER, "events",
          "Callbacks run by the discrete-event loop.",
          consumers=("diagnostics",)),
    _spec("sim.queue_depth_peak", GAUGE, "events",
          "Peak length of the pending-event heap.",
          consumers=("diagnostics",)),
    # -- net -----------------------------------------------------------
    _spec("net.messages_total", COUNTER, "messages",
          "Messages accepted by the network.",
          consumers=("Table 1", "Figs 8/11/14/17")),
    _spec("net.wire_bytes_total", COUNTER, "bytes",
          "Total bytes on the wire (headers + shared data)."),
    _spec("net.data_bytes_total", COUNTER, "bytes",
          "Shared-data bytes on the wire (diffs and pages only).",
          consumers=("Figs 9/12/15/18",)),
    _spec("net.wire_cycles_total", COUNTER, "cycles",
          "Cycles the medium (or a port pair) was busy serializing."),
    _spec("net.contention_cycles_total", COUNTER, "cycles",
          "Cycles messages waited for the medium or a port.",
          consumers=("Section 6.1", "Table 2")),
    _spec("net.wire_cycles", HISTOGRAM, "cycles",
          "Per-message serialization time."),
    _spec("net.collisions_total", COUNTER, "collisions",
          "Ethernet CSMA/CD collision episodes.",
          consumers=("Section 6.1",)),
    _spec("net.backoff_cycles_total", COUNTER, "cycles",
          "Ethernet binary-exponential-backoff penalty cycles.",
          consumers=("Section 6.1",)),
    _spec("net.port_contention_total", COUNTER, "messages",
          "ATM messages that waited for a busy input/output port."),
    # -- dsm -----------------------------------------------------------
    _spec("dsm.messages_total", COUNTER, "messages",
          "Messages sent, by sending node and message type.",
          labels=("node", "msg_type"),
          consumers=("Table 1", "Figs 8/11/14/17", "Section 6.2")),
    _spec("dsm.data_bytes_total", COUNTER, "bytes",
          "Shared-data bytes sent per node.", labels=("node",),
          consumers=("Figs 9/12/15/18",)),
    _spec("dsm.wire_bytes_total", COUNTER, "bytes",
          "Wire bytes (headers included) sent per node.",
          labels=("node",)),
    _spec("dsm.read_misses_total", COUNTER, "misses",
          "Access misses on reads.", labels=("node",),
          consumers=("Section 6.2",)),
    _spec("dsm.write_misses_total", COUNTER, "misses",
          "Access misses on writes.", labels=("node",),
          consumers=("Section 6.2",)),
    _spec("dsm.cold_misses_total", COUNTER, "misses",
          "Misses on pages never cached locally.", labels=("node",)),
    _spec("dsm.page_transfers_total", COUNTER, "pages",
          "Whole-page copies received.", labels=("node",),
          consumers=("Figs 9/12/15/18",)),
    _spec("dsm.diffs_created_total", COUNTER, "diffs",
          "Diffs created at interval seals.", labels=("node",),
          consumers=("Section 6.2", "Table 5")),
    _spec("dsm.diff_words_total", COUNTER, "words",
          "Words captured in created diffs.", labels=("node",)),
    _spec("dsm.diffs_applied_total", COUNTER, "diffs",
          "Diffs received and stored from peers.", labels=("node",)),
    _spec("dsm.invalidations_total", COUNTER, "invalidations",
          "Page copies invalidated by write notices or flushes.",
          labels=("node",)),
    _spec("dsm.write_notices_created_total", COUNTER, "notices",
          "Write notices created at interval seals.",
          labels=("node",)),
    _spec("dsm.write_notices_received_total", COUNTER, "notices",
          "Write notices incorporated from peers.", labels=("node",)),
    _spec("dsm.miss_wait_cycles", HISTOGRAM, "cycles",
          "Full stall per access miss (messages + remote service).",
          labels=("node",), consumers=("Section 6.2",)),
    # -- sync ----------------------------------------------------------
    _spec("sync.lock_acquires_total", COUNTER, "acquires",
          "Lock acquisitions (remote and local).", labels=("node",),
          consumers=("Table 1", "Section 6.2")),
    _spec("sync.lock_local_acquires_total", COUNTER, "acquires",
          "Acquisitions satisfied by a locally cached token.",
          labels=("node",), consumers=("Section 6.2",)),
    _spec("sync.lock_wait_cycles", HISTOGRAM, "cycles",
          "Stall per lock acquisition.", labels=("node",),
          consumers=("Section 6.2",)),
    _spec("sync.barrier_waits_total", COUNTER, "episodes",
          "Barrier episodes completed.", labels=("node",),
          consumers=("Table 1",)),
    _spec("sync.barrier_wait_cycles", HISTOGRAM, "cycles",
          "Stall per barrier episode.", labels=("node",),
          consumers=("Section 6.1", "Section 6.2")),
    # -- cpu -----------------------------------------------------------
    _spec("cpu.compute_cycles_total", COUNTER, "cycles",
          "Application computation charged.", labels=("node",),
          consumers=("Table 3", "Table 4")),
    _spec("cpu.overhead_cycles_total", COUNTER, "cycles",
          "Software overhead (message handling + diffing).",
          labels=("node",), consumers=("Table 3",)),
)

#: Metrics of the robustness subsystem (fault injection + reliable
#: transport, see docs/robustness.md).  Kept out of :data:`CATALOG` on
#: purpose: they are installed only when the subsystem is active, so a
#: fault-free run's stats dump stays bit-for-bit identical to a build
#: without the subsystem (the obs parity test pins this).
ROBUSTNESS_CATALOG: Tuple[MetricSpec, ...] = (
    # -- faults --------------------------------------------------------
    _spec("faults.drops_total", COUNTER, "packets",
          "Packets killed by the fault injector.",
          consumers=("loss sweep",)),
    _spec("faults.duplicates_total", COUNTER, "packets",
          "Extra deliveries created by the fault injector."),
    _spec("faults.reorders_total", COUNTER, "packets",
          "Packets held back to force reordering."),
    # Counts reorder holds only.  The help text is embedded in the
    # kvstore_lh_atm8_lossy and jacobi_lh_atm4_crash golden dumps.
    _spec("faults.delay_cycles_total", COUNTER, "cycles",
          "Extra delivery latency injected (delays + reorder holds)."),
    _spec("faults.stalls_total", COUNTER, "stalls",
          "CPU stall windows injected."),
    _spec("faults.stall_cycles_total", COUNTER, "cycles",
          "Cycles of injected CPU stall."),
    # -- node lifecycle (crash/recovery) -------------------------------
    _spec("faults.crashes_total", COUNTER, "crashes",
          "Node crashes executed by the lifecycle manager.",
          consumers=("availability sweep",)),
    _spec("faults.crash_dropped_packets_total", COUNTER, "packets",
          "Packets dropped at a crashed node's dead NIC.",
          consumers=("conservation invariant",)),
    _spec("faults.crash_checkpoint_bytes", HISTOGRAM, "bytes",
          "Serialized size of the DSM checkpoint taken at each "
          "crash.", buckets=CRASH_BYTE_BUCKETS),
    _spec("faults.recoveries_total", COUNTER, "recoveries",
          "Crashed nodes restored from checkpoint.",
          consumers=("availability sweep",)),
    _spec("faults.recovery_outage_cycles", HISTOGRAM, "cycles",
          "Crash-to-restore downtime per recovery.",
          consumers=("availability sweep",)),
    _spec("faults.recovery_replayed_total", COUNTER, "messages",
          "Logged in-flight messages replayed into a restored node."),
    # -- transport -----------------------------------------------------
    _spec("transport.packets_sent_total", COUNTER, "packets",
          "Packets handed to the network (data, acks, retransmits).",
          consumers=("conservation invariant",)),
    _spec("transport.packets_received_total", COUNTER, "packets",
          "Packets arriving from the network.",
          consumers=("conservation invariant",)),
    _spec("transport.data_packets_total", COUNTER, "packets",
          "First transmissions of data-bearing packets."),
    _spec("transport.retransmits_total", COUNTER, "packets",
          "Timeout-driven retransmissions.",
          consumers=("loss sweep",)),
    _spec("transport.timeout_fires_total", COUNTER, "timeouts",
          "Retransmission timer expiries.",
          consumers=("loss sweep",)),
    _spec("transport.acks_sent_total", COUNTER, "packets",
          "Standalone (pure) acknowledgement packets."),
    _spec("transport.acks_piggybacked_total", COUNTER, "acks",
          "Acknowledgements folded into outgoing data packets."),
    _spec("transport.duplicates_suppressed_total", COUNTER, "packets",
          "Duplicate data packets discarded by the receiver."),
    _spec("transport.out_of_order_total", COUNTER, "packets",
          "Packets buffered while awaiting earlier sequence numbers."),
    _spec("transport.delivered_total", COUNTER, "messages",
          "Protocol messages delivered upward, exactly once, in "
          "order."),
    _spec("transport.recovery_cycles", HISTOGRAM, "cycles",
          "First-send-to-ack latency of packets that needed at least "
          "one retransmission.", consumers=("loss sweep",)),
    _spec("transport.peer_down_timeouts_total", COUNTER, "timeouts",
          "Timer expiries at the maximum backoff — the sender's "
          "peer-death suspicion signal.",
          consumers=("availability sweep",)),
    _spec("transport.session_resets_total", COUNTER, "streams",
          "Per-stream resets (backoff cleared, oldest unacked "
          "reprobed) when a crashed peer recovers."),
)

#: Metrics of the experiment harness (:mod:`repro.lab`, see
#: docs/lab.md).  Like the robustness catalogue these stay out of
#: :data:`CATALOG`: they describe the *harness* (real wall-clock, not
#: simulated cycles) and live on the lab's own registry, never on a
#: machine run's, so per-run stats dumps are unchanged.
LAB_CATALOG: Tuple[MetricSpec, ...] = (
    _spec("lab.jobs_executed_total", COUNTER, "runs",
          "Run specs actually simulated (cache misses that ran).",
          consumers=("warm-cache CI gate",)),
    _spec("lab.cache_hits_total", COUNTER, "runs",
          "Run specs satisfied without simulating, by cache tier.",
          labels=("tier",),
          consumers=("warm-cache CI gate",)),
    _spec("lab.cache_misses_total", COUNTER, "runs",
          "Run specs found in neither cache tier."),
    _spec("lab.retries_total", COUNTER, "runs",
          "Run specs resubmitted after their process pool broke "
          "(killed worker); a run that raised is never re-run."),
    _spec("lab.failures_total", COUNTER, "runs",
          "Run specs whose run raised (or whose pool broke twice)."),
    _spec("lab.wall_seconds_total", COUNTER, "seconds",
          "Real wall-clock time spent inside Lab.run_many.",
          consumers=("Lab.format_stats",)),
    _spec("lab.run_seconds", HISTOGRAM, "seconds",
          "Per-run execution wall time, measured in the worker."),
    _spec("lab.worker_utilization", GAUGE, "ratio",
          "Busy-worker seconds over wall seconds x pool size, for "
          "the latest parallel batch.",
          consumers=("diagnostics",)),
    _spec("lab.executor_startup_seconds", GAUGE, "seconds",
          "One-time cost of spinning up and warming the process pool "
          "(fork + imports + code-version seeding), measured at first "
          "parallel batch.",
          consumers=("benchmarks/test_lab.py",)),
)

#: Metrics of the memory substrate (:mod:`repro.mem`, see
#: docs/memory.md).  Opt-in like the robustness catalogue: the mem
#: layer is pure data structures with no registry reference, so these
#: are installed (and emission switched on) only via
#: :func:`repro.mem.instrument.enable` — a default run's stats dump is
#: bit-for-bit unchanged.
MEM_CATALOG: Tuple[MetricSpec, ...] = (
    _spec("mem.diffs_encoded_total", COUNTER, "diffs",
          "Diffs serialized to the canonical RDIF wire format."),
    _spec("mem.diffs_decoded_total", COUNTER, "diffs",
          "RDIF blobs parsed (and validated) back into diffs."),
    _spec("mem.diff_runs", HISTOGRAM, "runs",
          "Run-table length of each encoded diff (1 = a single "
          "contiguous dirty range).",
          consumers=("write-amplification accounting",),
          buckets=MEM_RUN_BUCKETS),
    _spec("mem.diff_encoded_bytes", HISTOGRAM, "bytes",
          "Host length of each encoded RDIF blob (16-byte header + "
          "run table + float64 payload).", buckets=MEM_BYTE_BUCKETS),
    _spec("mem.diff_accounted_bytes", HISTOGRAM, "bytes",
          "Simulated wire cost (Diff.size_bytes) of each encoded "
          "diff: 8 bytes per run + word_size bytes per word.",
          consumers=("write-amplification accounting",),
          buckets=MEM_BYTE_BUCKETS),
    _spec("mem.twin_snapshots_total", COUNTER, "twins",
          "Page twins frozen (full-buffer bytes snapshots)."),
    _spec("mem.page_installs_total", COUNTER, "pages",
          "Page copies created or refreshed in a node's page table."),
)

#: Metrics of the serving workload (:mod:`repro.serve`, see
#: docs/serving.md).  Opt-in like the robustness catalogue: installed
#: by the kvstore app's ``setup``, never by default, so the four
#: paper kernels' stats dumps stay bit-for-bit unchanged.
SERVE_CATALOG: Tuple[MetricSpec, ...] = (
    _spec("serve.requests_total", COUNTER, "requests",
          "Serving requests completed, by operation.",
          labels=("op",), consumers=("serving sweep",)),
    _spec("serve.request_latency_cycles", HISTOGRAM, "cycles",
          "Scheduled-arrival-to-completion latency per request "
          "(queue wait included — the open-loop number SLOs are "
          "written against).",
          consumers=("serving sweep",)),
    _spec("serve.queue_wait_cycles", HISTOGRAM, "cycles",
          "Cycles each request sat scheduled-but-unserved while its "
          "node worked off earlier arrivals.",
          consumers=("serving sweep",)),
)

CATALOG_BY_NAME: Dict[str, MetricSpec] = {
    spec.name: spec
    for spec in CATALOG + ROBUSTNESS_CATALOG + LAB_CATALOG
    + MEM_CATALOG + SERVE_CATALOG}

#: ``dsm.messages_total`` msg_type label values that count as
#: synchronization traffic: the lock and barrier ``MsgKind`` values,
#: messages whose *purpose* is synchronization.
SYNC_MSG_TYPES = frozenset({"lock_req", "lock_fwd", "lock_grant",
                            "barrier_arrive", "barrier_depart"})


def install(registry, specs) -> None:
    """Instantiate ``specs`` (one of the catalogues above) on
    ``registry``, idempotently, so a dump lists their full schema even
    before any series is touched.  :data:`CATALOG` goes on every
    machine registry; the opt-in catalogues are installed by the
    subsystem that emits them, when it is switched on."""
    for spec in specs:
        registry.from_spec(spec)
