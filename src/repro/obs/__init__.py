"""repro.obs — unified metrics and tracing for the DSM simulator.

One :class:`Observability` context travels with each simulated
machine: a :class:`MetricsRegistry` (the documented stats schema, see
``docs/observability.md``) and a :class:`Tracer` with pluggable sinks,
both on the simulated clock.  Every layer emits into it —
the event kernel, the network models, the per-node protocol engines,
and the lock/barrier managers — and the analysis drivers, the ``repro
stats`` CLI subcommand, and the report generator read from it.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.catalog import (CATALOG, CATALOG_BY_NAME, LAB_CATALOG,
                               MEM_CATALOG, ROBUSTNESS_CATALOG,
                               SERVE_CATALOG, MetricSpec,
                               SYNC_MSG_TYPES, install)
from repro.obs.registry import (DEFAULT_BUCKETS, Metric, MetricError,
                                MetricsRegistry)
from repro.obs.causal import CausalTrace
from repro.obs.chrome_trace import chrome_trace, validate_chrome_trace
from repro.obs.timeseries import (TIMESERIES_SCHEMA, TimeseriesSampler,
                                  format_timeseries_table)
from repro.obs.tracer import (TRACE_EVENTS, JsonlSink, MemorySink,
                              NullSink, TraceEvent, TraceSink, Tracer,
                              read_jsonl)

__all__ = [
    "CATALOG", "CATALOG_BY_NAME", "CausalTrace",
    "DEFAULT_BUCKETS", "JsonlSink",
    "LAB_CATALOG", "MEM_CATALOG", "MemorySink", "Metric",
    "MetricError", "MetricSpec",
    "MetricsRegistry", "NodeInstruments", "NullSink", "Observability",
    "ROBUSTNESS_CATALOG", "SERVE_CATALOG", "SYNC_MSG_TYPES",
    "TIMESERIES_SCHEMA", "TRACE_EVENTS", "TimeseriesSampler",
    "TraceEvent", "TraceSink", "Tracer", "chrome_trace",
    "format_timeseries_table", "install", "read_jsonl",
    "validate_chrome_trace",
]


class _MessageChildren(dict):
    """One node's ``dsm.messages_total`` children keyed by
    :class:`~repro.net.message.MsgKind` (the enum member hashes at C
    level; ``kind.value`` is a Python-level descriptor call).  A
    series appears in the dump the first time its kind is sent, so
    the child is made on the first miss and a send costs one
    subscript."""

    __slots__ = ("_metric", "_node")

    def __init__(self, metric, node: str) -> None:
        self._metric = metric
        self._node = node

    def __missing__(self, kind):
        child = self[kind] = self._metric.labels(node=self._node,
                                                 msg_type=kind.value)
        return child


class NodeInstruments:
    """Pre-bound registry children for one node's hot paths.

    Binding the (node,) label once at construction keeps per-event
    emission down to an attribute access plus an addition.  These
    cells are the only place a node-level fact is counted, and
    :class:`repro.RunResult` reads them through the registry
    (``registry.by_label(name, "node")`` for one node's share).
    Nodes are built in ``proc`` order, so every node-labelled series
    exists in numeric label order — the order
    :meth:`MetricsRegistry.from_dump` restores.  Counter children are
    bare ``.value`` cells, so hot paths write ``child.value += n`` and
    skip the ``inc()`` frame.
    """

    __slots__ = ("messages", "data_bytes", "read_misses",
                 "write_misses", "page_transfers", "diffs_created",
                 "diff_words", "diffs_applied", "invalidations",
                 "notices_created", "notices_received", "miss_wait",
                 "lock_acquires", "lock_local_acquires", "lock_wait",
                 "barrier_waits", "barrier_wait", "compute_cycles",
                 "overhead_cycles")

    def __init__(self, registry: MetricsRegistry, proc: int) -> None:
        node = str(proc)

        def bound(name):
            return registry.get(name).labels(node=node)

        self.messages = _MessageChildren(
            registry.get("dsm.messages_total"), node)
        self.data_bytes = bound("dsm.data_bytes_total")
        self.read_misses = bound("dsm.read_misses_total")
        self.write_misses = bound("dsm.write_misses_total")
        self.page_transfers = bound("dsm.page_transfers_total")
        self.diffs_created = bound("dsm.diffs_created_total")
        self.diff_words = bound("dsm.diff_words_total")
        self.diffs_applied = bound("dsm.diffs_applied_total")
        self.invalidations = bound("dsm.invalidations_total")
        self.notices_created = bound("dsm.write_notices_created_total")
        self.notices_received = bound("dsm.write_notices_received_total")
        self.miss_wait = bound("dsm.miss_wait_cycles")
        self.lock_acquires = bound("sync.lock_acquires_total")
        self.lock_local_acquires = bound("sync.lock_local_acquires_total")
        self.lock_wait = bound("sync.lock_wait_cycles")
        self.barrier_waits = bound("sync.barrier_waits_total")
        self.barrier_wait = bound("sync.barrier_wait_cycles")
        self.compute_cycles = bound("cpu.compute_cycles_total")
        self.overhead_cycles = bound("cpu.overhead_cycles_total")


class Observability:
    """Registry + tracer + simulated clock for one machine."""

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.tracer = tracer or Tracer()
        self.clock = clock or (lambda: 0.0)
        self.tracer.clock = self.clock
        install(self.registry, CATALOG)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Point the tracer at the sim clock."""
        self.clock = clock
        self.tracer.clock = clock

    def node_instruments(self, proc: int) -> NodeInstruments:
        return NodeInstruments(self.registry, proc)

    def close(self) -> None:
        self.tracer.close()
