"""Names, units, directions and bounds of every ledger metric.

This module is the one place a metric is defined; ``run.py`` prints
them, ``compare.py`` applies the bounds, ``BENCHMARK.json`` lists the
same names for the driver, and ``test_ledger.py`` keeps the three in
step.  It imports nothing from the simulator, so ``compare.py`` works
on two result files alone.

Two kinds of number (README.md has the method):

- **host** metrics are in normalised seconds (see ``calibrate.py``)
  or megabytes; they are noisy and are reported as medians with
  quartiles;
- **sim** metrics are statistics of the modelled machine; the
  simulator is deterministic for a seed, so they repeat exactly and
  any difference between two repetitions is a failed operation.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.ledger.spans import BOUNDARIES, LAYERS

HOST = "host"
SIM = "sim"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    #: "lower" / "higher", or None for a bare count with no direction.
    better: Optional[str]
    #: Share of the base value by which a run may be worse before it
    #: counts as a regression (None: not gated).  One bound per
    #: metric: ``compare.py`` and ``BENCHMARK.json`` both read it here.
    bound: Optional[float] = None
    kind: str = SIM
    #: Defined on the serving workloads only.
    serving_only: bool = False


#: The twelve end-to-end metrics, reported per workload.
#:
#: The three simulated metrics every workload has are also gated by
#: the benchmark driver, which gives every run another ``--seed``.
#: The seed moves the serving schedule and the fault plan, so their
#: bounds have to cover the cross-seed spread of the two serving
#: workloads (the four kernels have no seeded input: spread 0).
#: Measured over seeds 1-40, as the quartile range of ten seeds over
#: their median, worst of 2000 draws of ten: ``sim_elapsed_mcycles``
#: 2.8 % (serve_write_lossy), ``sim_messages`` 7.5 % and
#: ``sim_data_kbytes`` 6.8 % (both serve_read_clean).  Between two
#: runs of one seed they repeat exactly, and ``compare.py`` reports
#: any move at all; the bound only decides whether it blocks.
END_TO_END: Tuple[Metric, ...] = (
    Metric("norm_run_s", "s", "lower", 0.10, HOST),
    Metric("setup_s", "s", "lower", 0.20, HOST),
    Metric("peak_rss_mb", "MB", "lower", 0.10, HOST),
    Metric("sim_elapsed_mcycles", "Mcycles", "lower", 0.04),
    Metric("sim_messages", "count", "lower", 0.10),
    Metric("sim_data_kbytes", "KB", "lower", 0.10),
    Metric("sim_achieved_rps", "1/s", "higher", 0.02,
           serving_only=True),
    Metric("sim_p50_us", "us", "lower", 0.02, serving_only=True),
    Metric("sim_p99_us", "us", "lower", 0.02, serving_only=True),
    Metric("sim_slo_attainment", "ratio", "higher", 0.02,
           serving_only=True),
    Metric("ops_attempted", "count", None),
    Metric("failed_share", "ratio", "lower", 0.0),
)

#: What ``BENCHMARK.json`` lists under ``end_to_end``: the bounded
#: metrics that exist and are non-zero on all six workloads.  The four
#: serving-only metrics go to the driver as per-layer metrics (0 on
#: the kernels), and ops_attempted / failed_share as the result
#: line's own ``attempted`` / ``failed`` fields.
DRIVER_END_TO_END: Tuple[Metric, ...] = tuple(
    m for m in END_TO_END if m.bound and not m.serving_only)

# -- per-layer metrics --------------------------------------------------

#: (a) Modelled-component counts read from the untraced run's
#: registry and node footprints; exact for a seed.
COUNTS: Tuple[Metric, ...] = (
    Metric("sim.events", "count", "lower"),
    Metric("sim.events_per_norm_s", "events/s", "higher", kind=HOST),
    Metric("sim.queue_depth_peak", "count", "lower"),
    Metric("net.messages", "count", "lower"),
    Metric("net.wire_kbytes", "KB", "lower"),
    Metric("net.contention_mcycles", "Mcycles", "lower"),
    Metric("transport.packets_sent", "count", "lower"),
    Metric("transport.retransmits", "count", "lower"),
    Metric("transport.retransmit_ratio", "ratio", "lower"),
    Metric("transport.ack_piggyback_ratio", "ratio", "higher"),
    Metric("faults.drops", "count", "lower"),
    Metric("mem.diffs_created", "count", "lower"),
    Metric("mem.diff_kwords", "kwords", "lower"),
    Metric("mem.diffs_applied", "count", "lower"),
    Metric("protocols.misses", "count", "lower"),
    Metric("protocols.page_transfers", "count", "lower"),
    Metric("protocols.invalidations", "count", "lower"),
    Metric("protocols.write_notices_created", "count", "lower"),
    Metric("protocols.write_notices_received", "count", "lower"),
    Metric("protocols.interval_records_end", "count", "lower"),
    Metric("protocols.stored_diffs_end", "count", "lower"),
    Metric("sync.lock_acquires", "count", "lower"),
    Metric("sync.lock_local_ratio", "ratio", "higher"),
    Metric("sync.lock_wait_mcycles", "Mcycles", "lower"),
    Metric("sync.barrier_waits", "count", "lower"),
    Metric("sync.barrier_wait_mcycles", "Mcycles", "lower"),
    Metric("core.compute_mcycles", "Mcycles", "lower"),
    Metric("core.overhead_mcycles", "Mcycles", "lower"),
    Metric("serve.requests", "count", "lower"),
    Metric("serve.queue_wait_mcycles", "Mcycles", "lower"),
)

#: (b) From the separate traced repetition (cProfile + mem.* opt-in
#: counters).  Shares rank layers; they are not absolute times.
TRACE: Tuple[Metric, ...] = (
    tuple(m for layer in LAYERS for m in (
        Metric(f"{layer}.self_share", "ratio", "lower", kind=HOST),
        Metric(f"{layer}.calls", "count", "lower")))
    + tuple(m for name in BOUNDARIES for m in (
        Metric(f"{name}.calls", "count", "lower"),
        Metric(f"{name}.cum_us_per_call", "us", "lower", kind=HOST)))
    + (Metric("mem.twins", "count", "lower"),
       Metric("mem.diffs_encoded", "count", "lower"),
       Metric("mem.page_installs", "count", "lower"),
       Metric("trace.overhead_ratio", "ratio", "lower", kind=HOST)))


def _kernel(name: str, unit: str) -> Metric:
    better = "higher" if unit == "MB/s" else "lower"
    return Metric(name, unit, better, kind=HOST)


#: (c) Layer kernels (``kernels.py``): public functions timed in
#: isolation on seeded synthetic inputs, calibration-paired medians.
KERNELS: Tuple[Metric, ...] = tuple(_kernel(*row) for row in (
    ("sim.k_dispatch_zero_ns", "ns"),
    ("sim.k_dispatch_timed_ns", "ns"),
    ("sim.k_process_yield_ns", "ns"),
    ("sim.k_timer_cancel_ns", "ns"),
    ("net.k_atm_transmit_ns", "ns"),
    ("net.k_ethernet_transmit_ns", "ns"),
    ("transport.k_clean_round_us", "us"),
    ("transport.k_lossy_round_us", "us"),
    ("mem.k_twin_mb_s", "MB/s"),
    ("mem.k_diff_create_sparse_mb_s", "MB/s"),
    ("mem.k_diff_create_dense_mb_s", "MB/s"),
    ("mem.k_diff_apply_mb_s", "MB/s"),
    ("mem.k_rdif_encode_mb_s", "MB/s"),
    ("mem.k_rdif_decode_mb_s", "MB/s"),
    ("mem.k_record_write_ns", "ns"),
    ("mem.k_vc_merge8_ns", "ns"),
    ("mem.k_vc_merge32_ns", "ns"),
    ("mem.k_records_after_us", "us"),
    ("obs.k_counter_inc_ns", "ns"),
    ("obs.k_null_emit_ns", "ns"),
    ("obs.k_memory_emit_ns", "ns"),
    ("obs.k_jsonl_emit_us", "us"),
    ("obs.nullsink_overhead_ratio", "ratio"),
    ("obs.sampler_overhead_ratio", "ratio"),
    ("obs.jsonl_overhead_ratio", "ratio"),
    ("lab.k_fingerprint_us", "us"),
    ("lab.k_cache_hit_ms", "ms"),
    ("lab.k_cache_put_ms", "ms"),
    ("lab.k_result_roundtrip_ms", "ms"),
    ("lab.k_spec_overhead_ms", "ms"),
    ("serve.k_generate_us_per_req", "us"),
))

#: What ``BENCHMARK.json`` lists under ``per_layer``.
DRIVER_PER_LAYER: Tuple[Metric, ...] = (
    COUNTS + TRACE + KERNELS
    + tuple(m for m in END_TO_END if m.serving_only))


# -- statistics ---------------------------------------------------------

def summarise(values: Sequence[float]) -> Dict[str, float]:
    """Median (as ``value``), quartiles the way the driver takes them,
    and count of a sample list."""
    if len(values) < 2:
        q1 = q3 = float(values[0])
    else:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


#: ``run_seconds`` of ``BENCHMARK.json``: how long one driver run
#: measures.  With set-up (three interpreters, each with a warm-up
#: repetition) a run takes 15-21 s, so the driver's 136 runs use about
#: 70 % of its 3420 s and a slower host still fits.
DRIVER_RUN_SECONDS = 13


def benchmark_json(workloads: List[Tuple[str, str]]) -> dict:
    """The ``BENCHMARK.json`` the driver reads (exactly its keys)."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": DRIVER_RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in workloads],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in DRIVER_END_TO_END],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in DRIVER_PER_LAYER],
    }
