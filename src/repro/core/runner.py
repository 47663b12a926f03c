"""The high-level runner: build a machine and run an application on it.

The application contract (``setup`` / ``worker`` / ``finish``) is
defined in :mod:`repro.apps.base` and sequenced by
:meth:`repro.core.machine.Machine.run_app`; an application is *named*
(``RunSpec.app`` + ``app_params``, see :mod:`repro.lab`) wherever a
run has to be described rather than executed.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import MachineConfig
from repro.core.machine import Machine
from repro.core.metrics import RunResult


def run_app(app, config: MachineConfig, protocol: str = "lh",
            max_events: Optional[int] = None,
            protocol_options: Optional[dict] = None,
            lock_broadcast: bool = False,
            obs=None, sampler=None,
            threads_per_proc: int = 1) -> RunResult:
    """Simulate ``app`` on a machine described by ``config``.

    ``obs`` optionally supplies a pre-built
    :class:`repro.obs.Observability` context (e.g. one carrying a JSONL
    trace sink); by default the machine creates its own.  ``sampler``
    optionally attaches a :class:`repro.obs.TimeseriesSampler` that
    records windowed telemetry as the run executes.
    ``threads_per_proc > 1`` runs that many ``app.worker_thread``
    generators per node (only Cholesky implements it)."""
    if threads_per_proc != 1 and not hasattr(app, "worker_thread"):
        raise ValueError(
            f"threads_per_proc={threads_per_proc}: app {app.name!r} "
            "has no worker_thread, so it runs one thread per "
            "processor only")
    machine = Machine(config, protocol=protocol,
                      protocol_options=protocol_options,
                      lock_broadcast=lock_broadcast,
                      obs=obs, sampler=sampler)
    return machine.run_app(app, max_events=max_events,
                           threads_per_proc=threads_per_proc)
