"""Opt-in instrumentation for the memory substrate.

The :mod:`repro.mem` data structures (pages, twins, diffs, the RDIF
wire codec) carry no registry reference — they are pure data types
used by every node of every machine.  This module provides a process-
global switch instead: :func:`enable` installs the ``mem.*`` catalogue
(:data:`repro.obs.catalog.MEM_CATALOG`) on a registry and binds its
children; emission sites in :mod:`repro.mem.wire` and
:mod:`repro.mem.pages` check the module-level handle for ``None``
before recording anything.

Disabled (the default) the cost on the hot path is one global load
and a ``None`` test, and — the parity-critical property — a default
run's stats dump is bit-for-bit identical to a build without this
module: the ``mem.*`` series are never even registered.  This mirrors
how the robustness catalogue stays out of fault-free dumps
(docs/observability.md).

Usage::

    from repro.mem import instrument

    ins = instrument.enable(registry)   # e.g. machine.obs.registry
    try:
        ...  # run simulations; mem.* series accumulate
    finally:
        instrument.disable()
"""

from __future__ import annotations

from typing import Optional

from repro.obs.catalog import MEM_CATALOG, install


class MemInstruments:
    """Pre-bound registry children for the memory substrate's
    emission sites (one attribute access + one addition each)."""

    __slots__ = ("registry", "diffs_encoded", "diffs_decoded",
                 "diff_runs", "diff_encoded_bytes",
                 "diff_accounted_bytes", "twin_snapshots",
                 "page_installs")

    def __init__(self, registry) -> None:
        install(registry, MEM_CATALOG)
        self.registry = registry
        bound = (lambda name: registry.get(name).labels())
        self.diffs_encoded = bound("mem.diffs_encoded_total")
        self.diffs_decoded = bound("mem.diffs_decoded_total")
        self.diff_runs = bound("mem.diff_runs")
        self.diff_encoded_bytes = bound("mem.diff_encoded_bytes")
        self.diff_accounted_bytes = bound("mem.diff_accounted_bytes")
        self.twin_snapshots = bound("mem.twin_snapshots_total")
        self.page_installs = bound("mem.page_installs_total")


#: The active instruments, or None (the default: nothing is recorded).
#: Emission sites read this through their module's import of
#: ``instrument`` so enable/disable take effect immediately.
active: Optional[MemInstruments] = None


def enable(registry) -> MemInstruments:
    """Install the ``mem.*`` catalogue on ``registry`` and start
    recording substrate activity into it.  Returns the bound
    instruments (also available as ``instrument.active``)."""
    global active
    active = MemInstruments(registry)
    return active


def disable() -> None:
    """Stop recording; already-registered series keep their values."""
    global active
    active = None
