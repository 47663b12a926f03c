"""repro.faults — deterministic fault injection.

The paper's simulation (and the seed reproduction) assumed a perfectly
reliable, in-order network.  This package drops, duplicates and
reorders messages, stalls node CPUs and crashes nodes, all from a
seeded plan so every run is exactly reproducible.
The reliable transport (:mod:`repro.net.transport`) recovers delivery
on top of it; ``docs/robustness.md`` describes both.
"""

from repro.faults.injector import (CrashEvent, Decision,
                                   FaultInjector)

__all__ = ["CrashEvent", "Decision", "FaultInjector"]
