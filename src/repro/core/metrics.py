"""Per-node and machine-wide metrics.

These counters are the quantities the paper reports: message counts
(split into synchronization vs. data traffic), kilobytes of shared data
moved, access misses, diffs created, and where time went (computation,
lock acquisition, barrier waits, software overhead).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

from repro.net.message import MsgKind


def json_safe(obj):
    """Best-effort conversion to JSON-serializable types (numpy
    scalars/arrays become python numbers/lists, tuples become lists,
    sets are sorted).  Idempotent, so a round-tripped value converts
    to itself — the property the lab cache relies on."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        return {str(key): json_safe(value)
                for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((json_safe(item) for item in obj),
                      key=lambda x: (str(type(x)), str(x)))
    if hasattr(obj, "item") and hasattr(obj, "dtype"):  # numpy scalar
        try:
            return json_safe(obj.item())
        except (TypeError, ValueError):
            pass
    if hasattr(obj, "tolist"):  # numpy array
        return json_safe(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return json_safe(dataclasses.asdict(obj))
    return repr(obj)


@dataclass
class NodeMetrics:
    """Counters for one simulated processor: a plain, serialisable
    record (the lab cache round-trips it).  No simulator code
    increments one; :meth:`from_instruments` builds it from the
    metrics registry."""

    proc: int
    messages_sent: Counter = field(default_factory=Counter)
    data_bytes_sent: int = 0
    wire_bytes_sent: int = 0
    read_misses: int = 0
    write_misses: int = 0
    cold_misses: int = 0
    page_transfers: int = 0
    diffs_created: int = 0
    diff_words_created: int = 0
    diffs_applied: int = 0
    invalidations: int = 0
    lock_acquires: int = 0
    lock_local_acquires: int = 0
    lock_wait_cycles: float = 0.0
    barrier_waits: int = 0
    barrier_wait_cycles: float = 0.0
    compute_cycles: float = 0.0
    overhead_cycles: float = 0.0
    miss_wait_cycles: float = 0.0
    finish_time: float = 0.0

    @staticmethod
    def from_instruments(proc: int, ins,
                         finish_time: float = 0.0) -> "NodeMetrics":
        """The record of one node's registry cells
        (:class:`repro.obs.NodeInstruments`) — the only place these
        facts are counted.  ``finish_time`` has no registry twin.  A
        counter cell nothing touched holds int ``0``, so the cycle
        fields are coerced: a dump must say ``0.0``."""
        return NodeMetrics(
            proc=proc,
            messages_sent=Counter(
                {kind: child.value
                 for kind, child in ins.messages.items()}),
            data_bytes_sent=ins.data_bytes.value,
            wire_bytes_sent=ins.wire_bytes.value,
            read_misses=ins.read_misses.value,
            write_misses=ins.write_misses.value,
            cold_misses=ins.cold_misses.value,
            page_transfers=ins.page_transfers.value,
            diffs_created=ins.diffs_created.value,
            diff_words_created=ins.diff_words.value,
            diffs_applied=ins.diffs_applied.value,
            invalidations=ins.invalidations.value,
            lock_acquires=ins.lock_acquires.value,
            lock_local_acquires=ins.lock_local_acquires.value,
            lock_wait_cycles=float(ins.lock_wait.sum),
            barrier_waits=ins.barrier_waits.value,
            barrier_wait_cycles=float(ins.barrier_wait.sum),
            compute_cycles=float(ins.compute_cycles.value),
            overhead_cycles=float(ins.overhead_cycles.value),
            miss_wait_cycles=float(ins.miss_wait.sum),
            finish_time=finish_time,
        )

    @property
    def total_messages(self) -> int:
        return sum(self.messages_sent.values())

    @property
    def sync_messages(self) -> int:
        return sum(count for kind, count in self.messages_sent.items()
                   if kind.is_synchronization)

    # -- serialization (repro.lab result cache) ------------------------

    def to_dict(self) -> dict:
        """JSON-ready dump; :meth:`from_dict` is the exact inverse."""
        data = dataclasses.asdict(self)
        data["messages_sent"] = {
            kind.value: count
            for kind, count in sorted(self.messages_sent.items(),
                                      key=lambda kv: kv[0].value)}
        return data

    @staticmethod
    def from_dict(data: dict) -> "NodeMetrics":
        data = dict(data)
        data["messages_sent"] = Counter(
            {MsgKind(kind): count
             for kind, count in data["messages_sent"].items()})
        return NodeMetrics(**data)


@dataclass
class RunResult:
    """Outcome of one simulated application run."""

    app: str
    protocol: str
    nprocs: int
    elapsed_cycles: float
    node_metrics: List[NodeMetrics]
    network_messages: int
    network_bytes: int
    network_contention_cycles: float
    app_result: object = None
    #: The run's metrics registry (repro.obs) — the documented stats
    #: schema behind the analysis drivers and ``repro stats``.
    registry: object = None

    @property
    def total_messages(self) -> int:
        return sum(m.total_messages for m in self.node_metrics)

    @property
    def sync_messages(self) -> int:
        return sum(m.sync_messages for m in self.node_metrics)

    @property
    def data_kbytes(self) -> float:
        return sum(m.data_bytes_sent for m in self.node_metrics) / 1024.0

    @property
    def access_misses(self) -> int:
        return sum(m.read_misses + m.write_misses
                   for m in self.node_metrics)

    @property
    def diffs_created(self) -> int:
        return sum(m.diffs_created for m in self.node_metrics)

    @property
    def lock_wait_cycles(self) -> float:
        return sum(m.lock_wait_cycles for m in self.node_metrics)

    @property
    def barrier_wait_cycles(self) -> float:
        return sum(m.barrier_wait_cycles for m in self.node_metrics)

    def messages_by_kind(self) -> Dict[MsgKind, int]:
        total: Counter = Counter()
        for metrics in self.node_metrics:
            total.update(metrics.messages_sent)
        return dict(total)

    # -- serialization (repro.lab result cache) ------------------------

    #: Bumped whenever the serialized layout changes; the lab cache
    #: refuses dumps from another schema generation.
    SCHEMA_VERSION = 1

    def to_dict(self) -> dict:
        """JSON-ready dump of the whole result, metrics registry
        included, so results can cross process boundaries and
        sessions (see docs/lab.md).  ``app_result`` goes through
        :func:`json_safe`; everything else round-trips exactly
        (JSON floats preserve the full double)."""
        return {
            "schema": RunResult.SCHEMA_VERSION,
            "app": self.app,
            "protocol": self.protocol,
            "nprocs": self.nprocs,
            "elapsed_cycles": self.elapsed_cycles,
            "node_metrics": [m.to_dict() for m in self.node_metrics],
            "network_messages": self.network_messages,
            "network_bytes": self.network_bytes,
            "network_contention_cycles":
                self.network_contention_cycles,
            "app_result": json_safe(self.app_result),
            "registry": (self.registry.dump()
                         if self.registry is not None else None),
        }

    @staticmethod
    def from_dict(data: dict) -> "RunResult":
        """Rebuild a result (and its readable metrics registry) from
        :meth:`to_dict` output."""
        schema = data.get("schema")
        if schema != RunResult.SCHEMA_VERSION:
            raise ValueError(
                f"unsupported RunResult schema {schema!r} "
                f"(expected {RunResult.SCHEMA_VERSION})")
        registry = None
        if data.get("registry") is not None:
            from repro.obs import MetricsRegistry
            registry = MetricsRegistry.from_dump(data["registry"])
        return RunResult(
            app=data["app"],
            protocol=data["protocol"],
            nprocs=data["nprocs"],
            elapsed_cycles=data["elapsed_cycles"],
            node_metrics=[NodeMetrics.from_dict(m)
                          for m in data["node_metrics"]],
            network_messages=data["network_messages"],
            network_bytes=data["network_bytes"],
            network_contention_cycles=
                data["network_contention_cycles"],
            app_result=data.get("app_result"),
            registry=registry,
        )

    # -- registry readers (repro.obs) ----------------------------------

    def _require_registry(self):
        if self.registry is None:
            raise ValueError(
                "this RunResult carries no metrics registry "
                "(constructed outside Machine.run)")
        return self.registry

    def metric_total(self, name: str) -> float:
        """Total of one registry metric across every series."""
        return self._require_registry().total(name)

    def metric_by(self, name: str, label: str) -> Dict[str, float]:
        """One registry metric's totals grouped by a label."""
        return self._require_registry().by_label(name, label)

    def registry_sync_messages(self) -> float:
        """Synchronization traffic per the registry (messages whose
        ``msg_type`` is a lock or barrier kind)."""
        from repro.obs import SYNC_MSG_TYPES
        by_type = self.metric_by("dsm.messages_total", "msg_type")
        return sum(count for kind, count in by_type.items()
                   if kind in SYNC_MSG_TYPES)

    def time_breakdown(self) -> Dict[str, float]:
        """Where processor time went, as fractions of total busy+wait
        time across all nodes (the paper's section 6.2 accounting:
        '84% of each processor's time was spent acquiring locks' for
        16-processor LH Cholesky).

        ``lock_wait``/``barrier_wait``/``miss_wait`` include the full
        stall, message latency and remote service included; ``compute``
        is application work; ``overhead`` is local software overhead
        (message handling and diff creation); ``other`` is whatever
        remains of each node's wall-clock (network wire time on the
        critical path, idle)."""
        total_wall = sum(m.finish_time for m in self.node_metrics)
        if total_wall <= 0:
            return {}
        parts = {
            "compute": sum(m.compute_cycles
                           for m in self.node_metrics),
            "lock_wait": sum(m.lock_wait_cycles
                             for m in self.node_metrics),
            "barrier_wait": sum(m.barrier_wait_cycles
                                for m in self.node_metrics),
            "miss_wait": sum(m.miss_wait_cycles
                             for m in self.node_metrics),
            "overhead": sum(m.overhead_cycles
                            for m in self.node_metrics),
        }
        fractions = {name: value / total_wall
                     for name, value in parts.items()}
        fractions["other"] = max(0.0, 1.0 - sum(fractions.values()))
        return fractions

    def speedup_over(self, sequential: "RunResult") -> float:
        if self.elapsed_cycles <= 0:
            raise ValueError("run did not advance simulated time")
        return sequential.elapsed_cycles / self.elapsed_cycles

    def summary(self) -> str:
        return (f"{self.app}/{self.protocol} on {self.nprocs} procs: "
                f"{self.elapsed_cycles:.0f} cycles, "
                f"{self.total_messages} msgs "
                f"({self.sync_messages} sync), "
                f"{self.data_kbytes:.1f} KB data, "
                f"{self.access_misses} misses")
