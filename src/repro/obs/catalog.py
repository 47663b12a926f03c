"""The metrics catalogue: every standard metric the simulator emits.

Each :class:`MetricSpec` names one metric, its type, unit, label set
and description.  These words live here once: a registry dump carries
values only and takes them back from :data:`CATALOG_BY_NAME` when it
is restored.  ``docs/observability.md`` tables this catalogue for
humans, and ``tests/docs`` asserts the two agree row for row.

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
    #: Histogram bucket bounds; empty means the registry's cycle-
    #: scaled ``DEFAULT_BUCKETS``.
    buckets: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (COUNTER, GAUGE, HISTOGRAM):
            raise ValueError(f"bad metric kind {self.kind!r}")


#: Bucket bounds for the mem histograms: diffs are small discrete
#: objects (runs, bytes), so the cycle-scaled default buckets would
#: dump everything into the first bucket.
MEM_RUN_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64)
MEM_BYTE_BUCKETS: Tuple[float, ...] = (
    64, 256, 1024, 4096, 16384, 65536)


#: Every standard metric, in catalogue order.
CATALOG: Tuple[MetricSpec, ...] = (
    # -- sim -----------------------------------------------------------
    MetricSpec("sim.events_dispatched_total", COUNTER, "events",
               "Callbacks run by the discrete-event loop."),
    MetricSpec("sim.queue_depth_peak", GAUGE, "events",
               "Peak length of the pending-event heap."),
    # -- net -----------------------------------------------------------
    MetricSpec("net.messages_total", COUNTER, "messages",
               "Messages accepted by the network."),
    MetricSpec("net.wire_bytes_total", COUNTER, "bytes",
               "Total bytes on the wire (headers + shared data)."),
    MetricSpec("net.data_bytes_total", COUNTER, "bytes",
               "Shared-data bytes on the wire (diffs and pages only)."),
    MetricSpec("net.contention_cycles_total", COUNTER, "cycles",
               "Cycles messages waited for the medium or a port."),
    MetricSpec("net.wire_cycles", HISTOGRAM, "cycles",
               "Per-message serialization time."),
    MetricSpec("net.collisions_total", COUNTER, "collisions",
               "Ethernet CSMA/CD collision episodes."),
    # -- dsm -----------------------------------------------------------
    MetricSpec("dsm.messages_total", COUNTER, "messages",
               "Messages sent, by sending node and message type.",
               labels=("node", "msg_type")),
    MetricSpec("dsm.data_bytes_total", COUNTER, "bytes",
               "Shared-data bytes sent per node.", labels=("node",)),
    MetricSpec("dsm.read_misses_total", COUNTER, "misses",
               "Access misses on reads.", labels=("node",)),
    MetricSpec("dsm.write_misses_total", COUNTER, "misses",
               "Access misses on writes.", labels=("node",)),
    MetricSpec("dsm.page_transfers_total", COUNTER, "pages",
               "Whole-page copies received.", labels=("node",)),
    MetricSpec("dsm.diffs_created_total", COUNTER, "diffs",
               "Diffs created at interval seals.", labels=("node",)),
    MetricSpec("dsm.diff_words_total", COUNTER, "words",
               "Words captured in created diffs.", labels=("node",)),
    MetricSpec("dsm.diffs_applied_total", COUNTER, "diffs",
               "Diffs received and stored from peers.", labels=("node",)),
    MetricSpec("dsm.invalidations_total", COUNTER, "invalidations",
               "Page copies invalidated by write notices or flushes.",
               labels=("node",)),
    MetricSpec("dsm.write_notices_created_total", COUNTER, "notices",
               "Write notices created at interval seals.",
               labels=("node",)),
    MetricSpec("dsm.write_notices_received_total", COUNTER, "notices",
               "Write notices incorporated from peers.", labels=("node",)),
    MetricSpec("dsm.miss_wait_cycles", HISTOGRAM, "cycles",
               "Full stall per access miss (messages + remote service).",
               labels=("node",)),
    # -- sync ----------------------------------------------------------
    MetricSpec("sync.lock_acquires_total", COUNTER, "acquires",
               "Lock acquisitions (remote and local).", labels=("node",)),
    MetricSpec("sync.lock_local_acquires_total", COUNTER, "acquires",
               "Acquisitions satisfied by a locally cached token.",
               labels=("node",)),
    MetricSpec("sync.lock_wait_cycles", HISTOGRAM, "cycles",
               "Stall per lock acquisition.", labels=("node",)),
    MetricSpec("sync.barrier_waits_total", COUNTER, "episodes",
               "Barrier episodes completed.", labels=("node",)),
    MetricSpec("sync.barrier_wait_cycles", HISTOGRAM, "cycles",
               "Stall per barrier episode.", labels=("node",)),
    # -- cpu -----------------------------------------------------------
    MetricSpec("cpu.compute_cycles_total", COUNTER, "cycles",
               "Application computation charged.", labels=("node",)),
    MetricSpec("cpu.overhead_cycles_total", COUNTER, "cycles",
               "Software overhead (message handling + diffing).",
               labels=("node",)),
)

#: Metrics of the robustness subsystem (fault injection + reliable
#: transport, see docs/robustness.md).  Kept out of :data:`CATALOG` on
#: purpose: they are installed only when the subsystem is active, so a
#: fault-free run's stats dump stays bit-for-bit identical to a build
#: without the subsystem (the obs parity test pins this).
ROBUSTNESS_CATALOG: Tuple[MetricSpec, ...] = (
    # -- faults --------------------------------------------------------
    MetricSpec("faults.drops_total", COUNTER, "packets",
               "Packets killed by the fault injector."),
    MetricSpec("faults.duplicates_total", COUNTER, "packets",
               "Extra deliveries created by the fault injector."),
    MetricSpec("faults.reorders_total", COUNTER, "packets",
               "Packets held back to force reordering."),
    MetricSpec("faults.delay_cycles_total", COUNTER, "cycles",
               "Extra delivery latency injected by reorder holds "
               "(REORDER_DELAY_US per reordered packet)."),
    MetricSpec("faults.stalls_total", COUNTER, "stalls",
               "CPU stall windows injected."),
    MetricSpec("faults.stall_cycles_total", COUNTER, "cycles",
               "Cycles of injected CPU stall."),
    # -- node lifecycle (crash/recovery) -------------------------------
    MetricSpec("faults.crashes_total", COUNTER, "crashes",
               "Node crashes executed from the crash plan."),
    MetricSpec("faults.crash_dropped_packets_total", COUNTER, "packets",
               "Packets discarded at the NIC because their "
               "destination node was down."),
    MetricSpec("faults.recoveries_total", COUNTER, "recoveries",
               "Crashed nodes brought back up after their outage."),
    MetricSpec("faults.recovery_outage_cycles", HISTOGRAM, "cycles",
               "Length of each completed outage (crash instant to "
               "recovery)."),
    MetricSpec("faults.recovery_replayed_total", COUNTER, "messages",
               "Logged messages re-dispatched to a node after its "
               "recovery."),
    # -- transport -----------------------------------------------------
    MetricSpec("transport.packets_sent_total", COUNTER, "packets",
               "Packets handed to the network (data, acks, retransmits)."),
    MetricSpec("transport.packets_received_total", COUNTER, "packets",
               "Packets arriving from the network."),
    MetricSpec("transport.data_packets_total", COUNTER, "packets",
               "First transmissions of data-bearing packets."),
    MetricSpec("transport.retransmits_total", COUNTER, "packets",
               "Timeout-driven retransmissions."),
    MetricSpec("transport.timeout_fires_total", COUNTER, "timeouts",
               "Retransmission timer expiries."),
    MetricSpec("transport.acks_sent_total", COUNTER, "packets",
               "Standalone (pure) acknowledgement packets."),
    MetricSpec("transport.acks_piggybacked_total", COUNTER, "acks",
               "Acknowledgements folded into outgoing data packets."),
    MetricSpec("transport.duplicates_suppressed_total", COUNTER, "packets",
               "Duplicate data packets discarded by the receiver."),
    MetricSpec("transport.out_of_order_total", COUNTER, "packets",
               "Packets buffered while awaiting earlier sequence numbers."),
    MetricSpec("transport.delivered_total", COUNTER, "messages",
               "Protocol messages delivered upward, exactly once, in "
               "order."),
    MetricSpec("transport.recovery_cycles", HISTOGRAM, "cycles",
               "First-send-to-ack latency of packets that needed at least "
               "one retransmission."),
    MetricSpec("transport.peer_down_timeouts_total", COUNTER, "timeouts",
               "Timer expiries past the backoff-exponent cap — the "
               "sender's peer-death suspicion signal."),
    MetricSpec("transport.session_resets_total", COUNTER, "resets",
               "Per-stream session resets performed when a crashed "
               "peer rejoins (backoff cleared, oldest packet re-probed, "
               "owed acks flushed)."),
)

#: Metrics of the experiment harness (:mod:`repro.lab`, see
#: docs/lab.md).  Like the robustness catalogue these stay out of
#: :data:`CATALOG`: they describe the *harness* (real wall-clock, not
#: simulated cycles) and live on the lab's own registry, never on a
#: machine run's, so per-run stats dumps are unchanged.
LAB_CATALOG: Tuple[MetricSpec, ...] = (
    MetricSpec("lab.jobs_executed_total", COUNTER, "runs",
               "Run specs actually simulated (cache misses that ran)."),
    MetricSpec("lab.cache_hits_total", COUNTER, "runs",
               "Run specs satisfied without simulating, by cache tier "
               "(memory / disk).",
               labels=("tier",)),
    MetricSpec("lab.cache_misses_total", COUNTER, "runs",
               "Run specs found in neither cache tier."),
    MetricSpec("lab.retries_total", COUNTER, "runs",
               "Run specs resubmitted after their process pool broke "
               "(killed worker); a run that raised is never re-run."),
    MetricSpec("lab.failures_total", COUNTER, "runs",
               "Run specs whose run raised (or whose pool broke twice)."),
    MetricSpec("lab.wall_seconds_total", COUNTER, "seconds",
               "Wall-clock time spent in Lab.run_many batches."),
    MetricSpec("lab.run_seconds", HISTOGRAM, "seconds",
               "Wall-clock time of each executed run, measured in the "
               "worker."),
    MetricSpec("lab.worker_utilization", GAUGE, "ratio",
               "Busy-worker seconds over wall seconds x pool size, for "
               "the latest parallel batch."),
    MetricSpec("lab.executor_startup_seconds", GAUGE, "seconds",
               "One-time cost of spinning up and warming the process pool "
               "(fork + imports + code-version seeding), measured at first "
               "parallel batch."),
)

#: Metrics of the memory substrate (:mod:`repro.mem`, see
#: docs/memory.md).  Opt-in like the robustness catalogue: the mem
#: layer is pure data structures with no registry reference, so these
#: are installed (and emission switched on) only via
#: :func:`repro.mem.instrument.enable` — a default run's stats dump is
#: bit-for-bit unchanged.
MEM_CATALOG: Tuple[MetricSpec, ...] = (
    MetricSpec("mem.diffs_encoded_total", COUNTER, "diffs",
               "Diffs serialized to the canonical RDIF wire format."),
    MetricSpec("mem.diffs_decoded_total", COUNTER, "diffs",
               "RDIF blobs parsed (and validated) back into diffs."),
    MetricSpec("mem.diff_runs", HISTOGRAM, "runs",
               "Run-table length of each encoded diff (1 = a single "
               "contiguous dirty range).",
               buckets=MEM_RUN_BUCKETS),
    MetricSpec("mem.diff_encoded_bytes", HISTOGRAM, "bytes",
               "Host length of each encoded RDIF blob (16-byte header + "
               "run table + float64 payload).", buckets=MEM_BYTE_BUCKETS),
    MetricSpec("mem.diff_accounted_bytes", HISTOGRAM, "bytes",
               "Simulated wire cost (Diff.size_bytes) of each encoded "
               "diff: 8 bytes per run + word_size bytes per word.",
               buckets=MEM_BYTE_BUCKETS),
    MetricSpec("mem.twin_snapshots_total", COUNTER, "twins",
               "Page twins frozen (full-buffer bytes snapshots)."),
    MetricSpec("mem.page_installs_total", COUNTER, "pages",
               "Page copies created or refreshed in a node's page table."),
)

#: Metrics of the serving workload (:mod:`repro.serve`, see
#: docs/serving.md).  Opt-in like the robustness catalogue: installed
#: by the kvstore app's ``setup``, never by default, so the four
#: paper kernels' stats dumps stay bit-for-bit unchanged.
SERVE_CATALOG: Tuple[MetricSpec, ...] = (
    MetricSpec("serve.requests_total", COUNTER, "requests",
               "Serving requests completed, by operation.",
               labels=("op",)),
    MetricSpec("serve.request_latency_cycles", HISTOGRAM, "cycles",
               "Scheduled-arrival-to-completion latency per request "
               "(queue wait included — the open-loop number SLOs are "
               "written against)."),
    MetricSpec("serve.queue_wait_cycles", HISTOGRAM, "cycles",
               "Cycles each request sat scheduled-but-unserved while its "
               "node worked off earlier arrivals."),
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
