"""repro: release-consistent software DSM simulator.

Reproduction of Dwarkadas, Keleher, Cox & Zwaenepoel, "Evaluation of
Release Consistent Software Distributed Shared Memory on Emerging
Network Technology" (ISCA 1993).

Public API highlights:

- :class:`repro.MachineConfig` / :class:`repro.NetworkConfig` — the
  architectural model (processors, pages, Ethernet/ATM, overheads);
- :class:`repro.Machine` + :class:`repro.DsmApi` — build and program a
  simulated DSM cluster;
- :func:`repro.run_app` — run one of the bundled applications
  (Jacobi, TSP, Water, Cholesky) under any protocol:
  the paper's five ('lh', 'li', 'lu', 'ei', 'eu'), the Ivy-style
  sequentially-consistent baseline ('sc'), or Midway-style entry
  consistency ('ec');
- :mod:`repro.obs` — the unified metrics registry and event tracer
  every run carries (see ``docs/observability.md``);
- :mod:`repro.trace` — record, persist, and replay operation traces.
"""

from repro.core import (DsmApi, Machine, MachineConfig, NetworkConfig,
                        OverheadConfig, RunResult, run_app)
from repro.obs import (JsonlSink, MemorySink, MetricsRegistry,
                       Observability, Tracer, read_jsonl)
from repro.protocols import (ALL_PROTOCOL_NAMES, PROTOCOL_NAMES,
                             create_protocol)

__version__ = "1.0.0"

__all__ = [
    "ALL_PROTOCOL_NAMES", "DsmApi", "JsonlSink", "Machine",
    "MachineConfig", "MemorySink", "MetricsRegistry", "NetworkConfig",
    "Observability", "OverheadConfig", "PROTOCOL_NAMES",
    "RunResult", "Tracer", "create_protocol", "read_jsonl", "run_app",
    "__version__",
]
