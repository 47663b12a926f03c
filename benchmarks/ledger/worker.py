"""Child-interpreter side of the ledger: one fresh process per call.

``run.py`` launches this module (one child at a time) in four modes
and reads one JSON object from its standard output:

- ``timed``  — warm-up, then calibration-paired untraced repetitions
  of one workload (the end-to-end numbers and the exact counts);
- ``traced`` — one repetition under ``cProfile`` with the opt-in
  ``mem.*`` counters on (the span table);
- ``kernels`` / ``arms`` — the layer kernels and the whole-run obs
  arms of ``kernels.py``.

Everything here observes the simulator from outside through public
functions: ``execute_spec``, ``Machine``, the metrics registry,
``Node.memory_footprint``.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, Tuple

from benchmarks.ledger.calibrate import calibration_sample, clocks
from benchmarks.ledger.spans import span_table
from benchmarks.ledger.workloads import BY_NAME, SLO_US, Workload


def tune_gc() -> None:
    """The regime the lab gives its pool workers: startup heap frozen
    out of every pass, gen-0 threshold raised (results do not depend
    on the collector)."""
    gc.collect()
    gc.freeze()
    gc.set_threshold(50_000, 25, 25)


def run_with_machine(spec):
    """``run_app`` spelled out so the finished machine stays
    reachable (node footprints are not part of a RunResult).  The
    statistics of this run are compared with ``execute_spec``'s, so a
    drift between the two paths shows as a failed repetition."""
    from repro.apps import create_app
    from repro.core.api import DsmApi
    from repro.core.machine import Machine

    app = create_app(spec.app, **spec.app_params)
    machine = Machine(spec.config, protocol=spec.protocol,
                      protocol_options=spec.protocol_options,
                      lock_broadcast=spec.lock_broadcast)
    shared = app.setup(machine)
    result = machine.run(
        lambda proc: app.worker(DsmApi(machine.nodes[proc]), proc,
                                shared),
        max_events=spec.max_events, app=app.name)
    app.finish(machine, shared, result)
    return result, machine


def _total(registry, name: str) -> float:
    return registry.total(name) if name in registry else 0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def sim_stats(workload: Workload, spec, result) -> Dict[str, float]:
    """Every simulated statistic of one run: the simulated end-to-end
    metrics and the modelled-component counts.  Exact for a seed."""
    reg = result.registry
    stats = {
        "sim_elapsed_mcycles": result.elapsed_cycles / 1e6,
        "sim_messages": result.total_messages,
        "sim_data_kbytes": result.data_kbytes,
        "sim.events": _total(reg, "sim.events_dispatched_total"),
        "sim.queue_depth_peak": _total(reg, "sim.queue_depth_peak"),
        "net.messages": _total(reg, "net.messages_total"),
        "net.wire_kbytes": _total(reg, "net.wire_bytes_total") / 1024,
        "net.contention_mcycles":
            _total(reg, "net.contention_cycles_total") / 1e6,
        "transport.packets_sent":
            _total(reg, "transport.packets_sent_total"),
        "transport.retransmits":
            _total(reg, "transport.retransmits_total"),
        "transport.retransmit_ratio": _ratio(
            _total(reg, "transport.retransmits_total"),
            _total(reg, "transport.data_packets_total")),
        "transport.ack_piggyback_ratio": _ratio(
            _total(reg, "transport.acks_piggybacked_total"),
            _total(reg, "transport.acks_piggybacked_total")
            + _total(reg, "transport.acks_sent_total")),
        "faults.drops": _total(reg, "faults.drops_total"),
        "mem.diffs_created": _total(reg, "dsm.diffs_created_total"),
        "mem.diff_kwords": _total(reg, "dsm.diff_words_total") / 1e3,
        "mem.diffs_applied": _total(reg, "dsm.diffs_applied_total"),
        "protocols.misses": (_total(reg, "dsm.read_misses_total")
                             + _total(reg, "dsm.write_misses_total")),
        "protocols.page_transfers":
            _total(reg, "dsm.page_transfers_total"),
        "protocols.invalidations":
            _total(reg, "dsm.invalidations_total"),
        "protocols.write_notices_created":
            _total(reg, "dsm.write_notices_created_total"),
        "protocols.write_notices_received":
            _total(reg, "dsm.write_notices_received_total"),
        "sync.lock_acquires": _total(reg, "sync.lock_acquires_total"),
        "sync.lock_local_ratio": _ratio(
            _total(reg, "sync.lock_local_acquires_total"),
            _total(reg, "sync.lock_acquires_total")),
        "sync.lock_wait_mcycles":
            _total(reg, "sync.lock_wait_cycles") / 1e6,
        "sync.barrier_waits": _total(reg, "sync.barrier_waits_total"),
        "sync.barrier_wait_mcycles":
            _total(reg, "sync.barrier_wait_cycles") / 1e6,
        "core.compute_mcycles":
            _total(reg, "cpu.compute_cycles_total") / 1e6,
        "core.overhead_mcycles":
            _total(reg, "cpu.overhead_cycles_total") / 1e6,
        "serve.requests": _total(reg, "serve.requests_total"),
        "serve.queue_wait_mcycles":
            _total(reg, "serve.queue_wait_cycles") / 1e6,
    }
    if workload.serving:
        from repro.analysis.serving import build_report
        report = build_report(
            result.app_result, spec.config.cpu_mhz, spec.protocol,
            spec.config.network.kind, spec.app_params["rate_rps"],
            slo_us=SLO_US)
        stats.update({
            "sim_achieved_rps": report.achieved_rps,
            "sim_p50_us": report.p50_us,
            "sim_p99_us": report.p99_us,
            "sim_slo_attainment": report.slo_attainment,
            # Requests with no completion record are failed
            # operations; the run loop reads this back.
            "requests_completed": report.completed,
        })
    return stats


def _footprint(machine) -> Dict[str, int]:
    """Consistency metadata left at exit, summed over nodes."""
    prints = [node.memory_footprint() for node in machine.nodes]
    return {
        "protocols.interval_records_end":
            sum(p["interval_records"] for p in prints),
        "protocols.stored_diffs_end":
            sum(p["stored_diffs"] for p in prints),
    }


def _golden_matches(workload: Workload, spec) -> bool:
    from tests.perf.parity import canonical_dump, golden_path
    golden = Path(golden_path(workload.golden)).read_text()
    return canonical_dump(spec) + "\n" == golden


def timed(args: dict) -> dict:
    """Warm-up, then paired (calibration, repetition) samples until
    ``reps`` repetitions ran or ``budget_s`` seconds of measuring
    passed (at least two repetitions either way)."""
    from repro.lab.spec import execute_spec

    workload = BY_NAME[args["workload"]]
    spec = workload.spec(args["seed"])
    reps, budget_s = args.get("reps"), args.get("budget_s")
    requests = spec.app_params["requests"] if workload.serving else 0

    warm_result, machine = run_with_machine(spec)
    reference = sim_stats(workload, spec, warm_result)
    footprint = _footprint(machine)
    del warm_result, machine
    tune_gc()
    # Child start -> ready to time: the wall seconds since the parent
    # launched this process (interpreter, imports, spec build,
    # warm-up), and its CPU seconds so far.
    now, setup_cpu = clocks()
    setup_wall = now - args["spawned_at"]

    samples = {"wall": [], "cal_wall": [], "cpu": [], "cal_cpu": []}
    errors = []
    attempted = failed = 0
    measuring_since = time.perf_counter()
    before = None
    while True:
        done = len(samples["wall"]) + len(errors)
        if reps is not None and done >= reps:
            break
        if (budget_s is not None and done >= 2
                and time.perf_counter() - measuring_since >= budget_s):
            break
        attempted += 1 + requests
        # Each repetition is bracketed by two calibration samples
        # (the one after it doubles as the next one's before) and
        # paired with their mean: one 40 ms sample is itself +-8 %.
        if before is None:
            gc.collect()
            before = calibration_sample()
        wall, cpu = clocks()
        try:
            result = execute_spec(spec)
        except Exception:  # noqa: BLE001 - a failed repetition is data
            failed += 1 + requests
            errors.append(traceback.format_exc(limit=3))
            before = None
            continue
        wall_after, cpu_after = clocks()
        stats = sim_stats(workload, spec, result)
        del result
        gc.collect()
        after = calibration_sample()
        cal_wall, cal_cpu = ((b + a) / 2 for b, a in zip(before, after))
        before = after
        if stats != reference:
            failed += 1
            errors.append("simulated statistics differ from the "
                          "warm-up repetition's")
            continue
        failed += requests - stats.get("requests_completed", 0)
        samples["wall"].append(wall_after - wall)
        samples["cal_wall"].append(cal_wall)
        samples["cpu"].append(cpu_after - cpu)
        samples["cal_cpu"].append(cal_cpu)

    if args.get("check_golden") and workload.golden:
        attempted += 1
        if not _golden_matches(workload, spec):
            failed += 1
            errors.append(f"canonical dump differs from golden "
                          f"{workload.golden}")
    reference.update(footprint)
    return {
        "setup_wall": setup_wall, "setup_cpu": setup_cpu,
        "samples": samples,
        "attempted": attempted, "failed": failed, "errors": errors,
        "sim": reference,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(args: dict) -> dict:
    """One repetition under the profile hook, ``mem.*`` counters on."""
    from repro.lab.spec import execute_spec
    from repro.mem import instrument
    from repro.obs import MetricsRegistry

    workload = BY_NAME[args["workload"]]
    spec = workload.spec(args["seed"])
    execute_spec(spec)                       # warm, like a timed child
    tune_gc()
    mem_registry = MetricsRegistry()
    profiler = cProfile.Profile()
    cal_before, _cpu = calibration_sample()
    instrument.enable(mem_registry)
    wall = time.perf_counter()
    profiler.enable()
    try:
        result = execute_spec(spec)
    finally:
        profiler.disable()
        instrument.disable()
    wall = time.perf_counter() - wall
    cal_after, _cpu = calibration_sample()
    return {
        "wall": wall,
        "cal_wall": (cal_before + cal_after) / 2,
        "table": span_table(pstats.Stats(profiler).stats),
        "mem": {
            "mem.twins": mem_registry.total("mem.twin_snapshots_total"),
            "mem.diffs_encoded":
                mem_registry.total("mem.diffs_encoded_total"),
            "mem.page_installs":
                mem_registry.total("mem.page_installs_total"),
        },
        "sim": sim_stats(workload, spec, result),
    }


def kernels(args: dict) -> dict:
    from benchmarks.ledger.kernels import run_kernels
    tune_gc()
    return run_kernels(seed=args["seed"], rounds=args["rounds"],
                       scratch=args["scratch"])


def arms(args: dict) -> dict:
    from benchmarks.ledger.kernels import run_arms
    tune_gc()
    return run_arms(rounds=args["rounds"], scratch=args["scratch"])


MODES = {"timed": timed, "traced": traced, "kernels": kernels,
         "arms": arms}


def main(argv: Tuple[str, ...]) -> int:
    args = json.loads(argv[1])
    json.dump(MODES[argv[0]](args), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(tuple(sys.argv[1:])))
