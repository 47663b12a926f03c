"""The outcome of one run and the numbers the paper reports from it.

Every count — message counts (split into synchronization vs. data
traffic), kilobytes of shared data moved, access misses, diffs
created, and where time went (computation, lock acquisition, barrier
waits, software overhead) — lives in one cell of the run's metrics
registry (:mod:`repro.obs`); the readers here total those cells.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs import SYNC_MSG_TYPES, MetricsRegistry


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
class RunResult:
    """Outcome of one simulated application run."""

    app: str
    protocol: str
    nprocs: int
    elapsed_cycles: float
    #: Each node's finish time (``0.0`` for a node that did not
    #: finish, which only a crash-stop run leaves) — the one fact with
    #: no registry cell.
    finish_times: List[float]
    app_result: object
    #: The run's metrics registry (repro.obs): the documented stats
    #: schema and the only source of every count below.
    registry: MetricsRegistry
    #: The captures its spec asked for (``RunSpec.trace``, ``window_us``):
    #: ``TraceEvent.to_record`` records and sampler windows, or None.
    trace: Optional[List[dict]] = None
    windows: Optional[List[dict]] = None

    @property
    def total_messages(self) -> int:
        return self.registry.total("dsm.messages_total")

    @property
    def sync_messages(self) -> int:
        """Messages whose ``msg_type`` is a lock or barrier kind."""
        by_type = self.registry.by_label("dsm.messages_total",
                                         "msg_type")
        return sum(count for kind, count in by_type.items()
                   if kind in SYNC_MSG_TYPES)

    @property
    def data_kbytes(self) -> float:
        return self.registry.total("dsm.data_bytes_total") / 1024.0

    @property
    def access_misses(self) -> int:
        return (self.registry.total("dsm.read_misses_total")
                + self.registry.total("dsm.write_misses_total"))

    @property
    def diffs_created(self) -> int:
        return self.registry.total("dsm.diffs_created_total")

    @property
    def lock_wait_cycles(self) -> float:
        return self.registry.total("sync.lock_wait_cycles")

    # -- serialization (repro.lab result cache) ------------------------

    #: Bumped whenever the serialized layout changes; the lab cache
    #: refuses dumps from another schema generation.
    SCHEMA_VERSION = 3

    def to_dict(self) -> dict:
        """JSON-ready dump of the whole result, metrics registry
        included, so results can cross process boundaries and
        sessions (see docs/lab.md).  ``app_result`` goes through
        :func:`json_safe`; everything else round-trips exactly
        (JSON floats preserve the full double).  A capture appears
        only when the run made one."""
        data = {
            "schema": RunResult.SCHEMA_VERSION,
            "app": self.app,
            "protocol": self.protocol,
            "nprocs": self.nprocs,
            "elapsed_cycles": self.elapsed_cycles,
            "finish_times": list(self.finish_times),
            "app_result": json_safe(self.app_result),
            "registry": self.registry.dump(),
        }
        for name in ("trace", "windows"):
            if getattr(self, name) is not None:
                data[name] = getattr(self, name)
        return data

    @staticmethod
    def from_dict(data: dict) -> "RunResult":
        """Rebuild a result (and its readable metrics registry) from
        :meth:`to_dict` output."""
        schema = data.get("schema")
        if schema != RunResult.SCHEMA_VERSION:
            raise ValueError(
                f"unsupported RunResult schema {schema!r} "
                f"(expected {RunResult.SCHEMA_VERSION})")
        return RunResult(
            app=data["app"],
            protocol=data["protocol"],
            nprocs=data["nprocs"],
            elapsed_cycles=data["elapsed_cycles"],
            finish_times=data["finish_times"],
            app_result=data["app_result"],
            registry=MetricsRegistry.from_dump(data["registry"]),
            trace=data.get("trace"),
            windows=data.get("windows"),
        )

    # -- derived views -------------------------------------------------

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
        total_wall = sum(self.finish_times)
        if total_wall <= 0:
            return {}
        total = self.registry.total
        parts = {
            "compute": total("cpu.compute_cycles_total"),
            "lock_wait": total("sync.lock_wait_cycles"),
            "barrier_wait": total("sync.barrier_wait_cycles"),
            "miss_wait": total("dsm.miss_wait_cycles"),
            "overhead": total("cpu.overhead_cycles_total"),
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
        """One line of headline numbers; a partial (crash-stop) result
        says how many nodes finished."""
        line = (f"{self.app}/{self.protocol} on {self.nprocs} procs: "
                f"{self.elapsed_cycles:.0f} cycles, "
                f"{self.total_messages} msgs "
                f"({self.sync_messages} sync), "
                f"{self.data_kbytes:.1f} KB data, "
                f"{self.access_misses} misses")
        if 0.0 in self.finish_times:
            finished = sum(1 for t in self.finish_times if t)
            line += (f" ({finished} of {len(self.finish_times)} "
                     "nodes finished)")
        return line
