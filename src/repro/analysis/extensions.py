"""The paper's future-work directions, implemented and measured.

Section 8 closes: *"the only possible approach may be to hide the
latency of lock acquisition.  Multithreading is a common technique for
masking the latency of expensive operations, but the attendant
increase in communication could prove prohibitive in software DSMs."*

:func:`multithreading_study` tests that hypothesis directly: Cholesky
(whose 16-processor LH run spends ~85% of its time acquiring locks)
is run with 1, 2, and 4 worker threads per node.  Extra threads
overlap their lock stalls behind each other's computation — and also
multiply the message count, exactly the tension the paper predicted.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.analysis.experiments import APP_PARAMS
from repro.core.config import MachineConfig, NetworkConfig
from repro.lab import Lab, RunSpec


def multithreading_study(nprocs: int = 8,
                         thread_counts=(1, 2, 4),
                         scale: str = "bench",
                         protocol: str = "lh",
                         lab: Optional[Lab] = None
                         ) -> Dict[int, Dict[str, float]]:
    """Elapsed time, messages, and lock-wait share of Cholesky as the
    thread count grows.  Returns per-thread-count summaries."""
    if lab is None:
        lab = Lab()
    spec = RunSpec("cholesky", APP_PARAMS[scale]["cholesky"],
                   protocol=protocol,
                   config=MachineConfig(nprocs=nprocs,
                                        network=NetworkConfig.atm()))
    cells = {"baseline": spec.baseline(),
             **{threads: replace(spec, threads_per_proc=threads)
                for threads in thread_counts}}
    results = lab.run_grid(cells)
    baseline = results.pop("baseline")
    study: Dict[int, Dict[str, float]] = {}
    for threads, result in results.items():
        breakdown = result.time_breakdown()
        study[threads] = {
            "elapsed_cycles": result.elapsed_cycles,
            "speedup": result.speedup_over(baseline),
            "messages": float(result.total_messages),
            "lock_wait_fraction": breakdown.get("lock_wait", 0.0),
        }
    return study
