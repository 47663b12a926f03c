"""Command-line interface.

Examples::

    python -m repro run water --procs 8 --protocol lh
    python -m repro compare water --procs 16 --jobs 4
    python -m repro sweep jacobi --protocol lh --proc-list 1,2,4,8,16
    python -m repro networks --app jacobi
    python -m repro stats jacobi --protocol li --network atm
    python -m repro stats --load result.json --format table
    python -m repro report EXPERIMENTS.md --jobs 4

Every simulating subcommand resolves its runs through
:class:`repro.lab.Lab`: ``--jobs N`` fans independent runs across N
worker processes, and results are memoized in a content-addressed
cache (``--cache-dir``, default ``.repro-cache/``; ``--no-cache``
disables it).  See docs/lab.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from typing import List, Optional

from repro.analysis.experiments import APP_PARAMS, protocol_sweep
from repro.apps import APP_NAMES
from repro.core.config import (WORD_SIZE, CrashSpec, FaultConfig,
                               MachineConfig, NetworkConfig, StallSpec)
from repro.core.metrics import RunResult
from repro.lab import DEFAULT_CACHE_DIR, Lab, RunSpec
from repro.protocols import ALL_PROTOCOL_NAMES, PROTOCOL_NAMES
from repro.serve.workload import SERVE_APP_PARAMS

#: Apps the CLI accepts: the paper suite plus the serving workload
#: (kept out of APP_NAMES so report/experiment drivers that iterate
#: the paper suite never pick it up).
CLI_APP_CHOICES = APP_NAMES + ["kvstore"]


#: What ``--network`` and each ``--networks`` entry may name.
NETWORK_NAMES = ["atm", "ethernet", "ideal"]


def _network(args, name: Optional[str] = None) -> NetworkConfig:
    """The network called ``name`` (default: ``--network``), shaped by
    ``--bandwidth`` and ``--no-collisions``."""
    name = name or args.network
    if name == "ethernet":
        return NetworkConfig.ethernet(collisions=not args.no_collisions)
    if name == "atm":
        return NetworkConfig.atm(args.bandwidth)
    return NetworkConfig.ideal()


def _networks(args) -> list:
    """The ``--networks`` list as ``(name, NetworkConfig)`` cells."""
    return [(name, _network(args, name)) for name in args.networks]


def _app_params(args) -> dict:
    """Scaled parameters for the selected app (the serving workload
    scales through its own table, see repro.serve.workload)."""
    if args.app == "kvstore":
        return dict(SERVE_APP_PARAMS[args.scale])
    return dict(APP_PARAMS[args.scale][args.app])


def _checked_arg(convert, what: str, accept, rule: str):
    """Argparse type factory for a range-checked number: out-of-range
    input is rejected at the command line with a clear message instead
    of failing deep inside config validation."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {what}, got {text!r}")
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {value}")
        return value
    return parse


_float_arg = functools.partial(_checked_arg, float)
_int_arg = functools.partial(_checked_arg, int)

# Counts: processors, workers, requests, table rows, event budgets.
_positive_int = _int_arg("a count", lambda v: v >= 1,
                         "count must be at least 1")
_nonnegative_int = _int_arg("a count", lambda v: v >= 0,
                            "count must be non-negative")
_page_size = _int_arg(
    "a page size in bytes", lambda v: v > 0 and v % WORD_SIZE == 0,
    f"page size must be a positive multiple of {WORD_SIZE} bytes")
# Clock (MHz) and link (Mbit/s) rates: zero divides, negative runs
# time backwards.
_positive_hw_rate = _float_arg("a rate", lambda v: v > 0,
                               "rate must be > 0")


def _list_arg(item):
    """Argparse type for a comma-separated list, each entry parsed and
    range-checked by ``item`` (a bad entry exits 2 naming the flag)."""
    def parse(text: str) -> list:
        return [item(entry) for entry in text.split(",")]
    return parse


def _name_arg(what: str, names: List[str]):
    """Argparse type for one entry of a list of names."""
    def parse(text: str) -> str:
        if text not in names:
            raise argparse.ArgumentTypeError(
                f"unknown {what} {text!r} (choose from "
                f"{', '.join(names)})")
        return text
    return parse


_protocol_list = _list_arg(_name_arg("protocol", ALL_PROTOCOL_NAMES))
_network_list = _list_arg(_name_arg("network", NETWORK_NAMES))


# The --proc-list processor counts, each at least 1.
_proc_list = _list_arg(_positive_int)
# Per-message fault rates: [0.0, 1.0), the injector's domain.
_probability = _float_arg(
    "a probability", lambda v: 0.0 <= v < 1.0,
    "probability must be at least 0.0 and below 1.0")
# Durations/times in microseconds.
_nonnegative_us = _float_arg(
    "microseconds", lambda v: not v < 0,
    "microseconds must be non-negative")
# Latency SLO: at 0 no request can meet it.
_slo_us = _float_arg("microseconds", lambda v: v > 0,
                     "SLO must be > 0 µs")
# Offered load: an open-loop generator with no arrivals is a mistake,
# not a workload.
_positive_rate = _float_arg(
    "requests/second", lambda v: v > 0,
    "arrival rate must be > 0 requests/s")
# Mix fractions: inclusive — an all-read or all-write mix is legitimate.
_unit_fraction = _float_arg(
    "a fraction", lambda v: 0.0 <= v <= 1.0,
    "fraction must be within [0, 1]")
# Telemetry window.  (The companion check — a window smaller than the
# scheduler tick — needs the machine's clock rate, so RunSpec makes it
# and it surfaces as a clean error too.)
_window_us = _float_arg(
    "a window in microseconds", lambda v: v > 0,
    "window must be > 0 µs")
# SLO attainment target: at 1.0 the burn rate divides by zero, at 0
# every window trivially passes.
_slo_target = _float_arg(
    "an SLO target", lambda v: 0.0 < v < 1.0,
    "SLO target must be within (0, 1)")
# Zipf skew (0 = uniform keys).
_zipf_exponent = _float_arg(
    "a Zipf exponent", lambda v: not v < 0,
    "Zipf exponent must be >= 0")


def _parse_stall(spec: str) -> StallSpec:
    """Parse a ``PROC:AT_US:DURATION_US`` stall spec."""
    try:
        proc, at_us, duration_us = spec.split(":")
        proc = int(proc)
        at_us = float(at_us)
        duration_us = float(duration_us)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected PROC:AT_US:DURATION_US, got {spec!r}")
    if at_us < 0 or duration_us < 0:
        raise argparse.ArgumentTypeError(
            f"stall times must be non-negative, got {spec!r}")
    try:
        return StallSpec(proc=proc, at_us=at_us,
                         duration_us=duration_us)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad stall {spec!r}: {exc}")


def _parse_crash(spec: str) -> CrashSpec:
    """Parse a ``PROC:AT_US[:DOWN_US]`` crash spec (no DOWN_US means
    crash-stop: the node never comes back)."""
    parts = spec.split(":")
    try:
        if len(parts) == 2:
            proc, at_us = int(parts[0]), float(parts[1])
            down_us = None
        elif len(parts) == 3:
            proc, at_us = int(parts[0]), float(parts[1])
            down_us = float(parts[2])
        else:
            raise ValueError(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected PROC:AT_US[:DOWN_US], got {spec!r}")
    try:
        return CrashSpec(proc=proc, at_us=at_us, down_us=down_us)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad crash {spec!r}: {exc}")


def _saved_result(path: str) -> RunResult:
    """Load ``stats --load FILE``: a ``--save`` dump or a lab cache
    envelope.  A file that cannot be read, is not JSON, is not a
    result, or is from another schema generation exits 2 naming the
    file and the reason."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"{path}: {exc.strerror}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{path}: not JSON ({exc})")
    if isinstance(data, dict) and "result" in data:
        data = data["result"]     # a lab-cache envelope
    try:
        if isinstance(data, dict) and "schema" in data:
            return RunResult.from_dict(data)
    except ValueError as exc:     # another schema generation
        raise argparse.ArgumentTypeError(f"{path}: {exc}")
    except (KeyError, TypeError):
        pass
    raise argparse.ArgumentTypeError(
        f"{path}: not a saved RunResult or lab cache entry")


def _faults(args) -> FaultConfig:
    return FaultConfig(drop_prob=args.loss,
                       dup_prob=args.dup,
                       reorder_prob=args.reorder,
                       stalls=tuple(args.stall or ()),
                       crashes=tuple(args.crash or ()),
                       crash_mttf_us=args.crash_mttf,
                       crash_mttr_us=args.crash_mttr,
                       crash_horizon_us=args.crash_horizon,
                       seed=args.fault_seed)


def _config(args, nprocs: Optional[int] = None,
            network: Optional[NetworkConfig] = None) -> MachineConfig:
    """The machine the shared flags describe.  ``network`` stands in
    for ``--network`` on the subcommands that sweep several."""
    return MachineConfig(nprocs=nprocs or args.procs,
                         cpu_mhz=args.mhz,
                         page_size=args.page_size,
                         network=network or _network(args),
                         faults=_faults(args))


def _lab(args) -> Lab:
    """The experiment harness configured by the shared CLI flags."""
    return Lab(jobs=args.jobs, cache_dir=args.cache_dir,
               cache=not args.no_cache, progress=True)


def _spec(args, protocol: Optional[str] = None,
          network: Optional[NetworkConfig] = None) -> RunSpec:
    return RunSpec(args.app, _app_params(args),
                   protocol=protocol or args.protocol,
                   config=_config(args, network=network))


def cmd_run(args) -> int:
    """Run one application once and print its metrics."""
    with _lab(args) as lab:
        specs = [_spec(args)]
        if args.speedup:
            specs.append(specs[0].baseline())
        results = lab.run_many(specs)
    result = results[0]
    print(result.summary())
    breakdown = result.time_breakdown()
    print("time breakdown: " + ", ".join(
        f"{name}={value:.0%}" for name, value in breakdown.items()))
    registry = result.registry
    if "transport.packets_sent_total" in registry:
        print("transport: "
              f"drops={registry.total('faults.drops_total'):.0f}, "
              "retransmits="
              f"{registry.total('transport.retransmits_total'):.0f}, "
              "dup_suppressed="
              f"{registry.total('transport.duplicates_suppressed_total'):.0f}")
    if args.speedup:
        print(f"speedup over sequential: "
              f"{result.speedup_over(results[1]):.2f}x")
    return 0


def cmd_compare(args) -> int:
    """Run one application under all five protocols."""
    with _lab(args) as lab:
        specs = [_spec(args, protocol=protocol)
                 for protocol in PROTOCOL_NAMES]
        results = lab.run_many([specs[0].baseline()] + specs)
    baseline = results[0]
    print(f"{args.app} on {args.procs} procs "
          f"({args.network}, {args.bandwidth:.0f} Mbit)")
    print(f"{'proto':>6s} {'speedup':>8s} {'messages':>9s} "
          f"{'data KB':>8s} {'misses':>7s}")
    for protocol, result in zip(PROTOCOL_NAMES, results[1:]):
        print(f"{protocol:>6s} {result.speedup_over(baseline):8.2f} "
              f"{result.total_messages:9d} {result.data_kbytes:8.1f} "
              f"{result.access_misses:7d}")
    return 0


def cmd_sweep(args) -> int:
    """Speedup curve across processor counts."""
    with _lab(args) as lab:
        # protocol_sweep sets nprocs per point (there is no --procs).
        result = protocol_sweep(args.app, _network(args), args.proc_list,
                                protocols=[args.protocol],
                                scale=args.scale,
                                config=_config(args, nprocs=1), lab=lab)
    curve = result.curves[args.protocol]
    print(f"{args.app}/{args.protocol} on {args.network}")
    for nprocs in args.proc_list:
        print(f"{nprocs:4d}p  speedup={curve.speedup[nprocs]:6.2f}  "
              f"messages={curve.messages[nprocs]:7d}  "
              f"data={curve.data_kbytes[nprocs]:9.1f}KB")
    return 0


def cmd_networks(args) -> int:
    """One application across the paper's five networks (Table 2)."""
    from repro.analysis.experiments import TABLE2_NETWORKS
    with _lab(args) as lab:
        specs = [_spec(args, network=network)
                 for _, network in TABLE2_NETWORKS]
        results = lab.run_many([specs[0].baseline()] + specs)
    baseline = results[0]
    print(f"{args.app} ({args.protocol.upper()}, {args.procs} procs)")
    for (name, _), result in zip(TABLE2_NETWORKS, results[1:]):
        print(f"{name:<26s} speedup={result.speedup_over(baseline):6.2f}")
    return 0


def cmd_stats(args) -> int:
    """Run one application and dump its metrics registry (JSON by
    default, or a text table), optionally writing its trace to a JSONL
    file; or inspect a result saved earlier with ``--save``/the lab
    cache via ``--load``."""
    if args.load is not None:
        result = args.load            # loaded by _saved_result
        if args.trace and result.trace is None:
            print("stats: --trace with --load needs a result saved "
                  "from a traced run (stats APP --trace FILE --save "
                  "FILE)", file=sys.stderr)
            return 2
    elif args.app is None:
        raise SystemExit("stats: pass an app name or --load FILE")
    else:
        with _lab(args) as lab:
            result = lab.run(replace(_spec(args),
                                     trace=bool(args.trace)))
    if args.save:
        with open(args.save, "w") as handle:
            json.dump(result.to_dict(), handle, sort_keys=True)
            handle.write("\n")
        print(f"saved result to {args.save}", file=sys.stderr)
    registry = result.registry
    if args.format == "json":
        text = registry.as_json(indent=2)
    else:
        text = registry.as_text(skip_empty=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    if args.trace:
        from repro.obs import JsonlSink, TraceEvent

        with JsonlSink(args.trace) as sink:
            for record in result.trace:
                sink.emit(TraceEvent.from_record(record))
        print(f"trace written to {args.trace}", file=sys.stderr)
    return 0


def cmd_profile(args) -> int:
    """Profile one run: host-time hotspots (cProfile, per subsystem
    and top-N functions) next to the simulated-time breakdown from
    the metrics registry (docs/performance.md)."""
    from repro.analysis.profiling import format_profile, profile_spec

    # A profile measures the host running the simulation, so it always
    # executes in-process and bypasses the lab cache.
    report = profile_spec(_spec(args), top=args.top)
    print(format_profile(report, top=args.top))
    return 0


def cmd_losssweep(args) -> int:
    """Per-protocol slowdown across message-loss rates
    (docs/robustness.md)."""
    from repro.analysis.faults import format_loss_table, loss_sweep
    protocols = args.protocols
    print(f"{args.app} on {args.procs} procs ({args.network}), "
          f"loss rates {args.rates}")
    with _lab(args) as lab:
        results = loss_sweep(args.app, _config(args), rates=args.rates,
                             protocols=protocols,
                             app_params=_app_params(args), lab=lab)
    print(format_loss_table(results))
    return 0


def cmd_crashsweep(args) -> int:
    """Availability study across node-crash rates: completion rate,
    recovery latency, and message overhead per protocol and network
    (docs/robustness.md)."""
    from repro.analysis.availability import (availability_sweep,
                                             format_availability_table)
    protocols = args.protocols
    networks = _networks(args)
    print(f"{args.app} on {args.procs} procs, "
          f"mttf {args.mttfs} µs, mttr {args.crash_mttr} µs, "
          f"horizon {args.crash_horizon} µs")
    # Every cell is the machine the shared flags describe (message
    # faults and stalls included), on its own network and crash rate.
    with _lab(args) as lab:
        results = availability_sweep(
            args.app, _app_params(args),
            config=_config(args, network=networks[0][1]),
            mttfs=args.mttfs, mttr_us=args.crash_mttr,
            horizon_us=args.crash_horizon, protocols=protocols,
            networks=networks, max_events=args.max_events, lab=lab)
    print(format_availability_table(results))
    return 0


def _serve_overrides(args) -> dict:
    overrides = {"read_fraction": args.read_fraction,
                 "zipf_s": args.zipf_s,
                 "arrival": args.arrival}
    if args.requests is not None:
        overrides["requests"] = args.requests
    return overrides


def _serve_config(args) -> MachineConfig:
    """Machine config for serving runs: the network comes from
    ``--networks`` per cell, everything else (faults included — the
    capacity question composes loss and crash plans) from the shared
    flags.  Crash-stop plans are rejected here: every serving worker
    ends at a barrier, so once a node stays down no worker finishes,
    and a worker returns its request records only when it finishes.
    The cell would be a partial result with no request in it."""
    faults = _faults(args)
    if faults.crash_mttf_us and not faults.crash_mttr_us:
        raise SystemExit(
            "serve: --crash-mttf needs --crash-mttr > 0 "
            "(crash-stop runs never finish serving; use crashsweep "
            "for crash-stop availability)")
    if any(crash.down_us is None for crash in faults.crashes):
        raise SystemExit(
            "serve: --crash needs a DOWN_US (crash-stop runs never "
            "finish serving; use crashsweep for crash-stop "
            "availability)")
    return MachineConfig(nprocs=args.procs, cpu_mhz=args.mhz,
                         page_size=args.page_size, faults=faults)


def cmd_serve(args) -> int:
    """Serve the kvstore workload open-loop at one offered load:
    throughput and p50/p99/p999 latency per (protocol, network), with
    optional critical-path attribution of the slowest requests
    (docs/serving.md)."""
    from repro.analysis.serving import (attribute_tail,
                                        format_attribution_table,
                                        format_serving_table,
                                        serving_cells, serving_curves)
    from repro.obs import CausalTrace

    protocols = args.protocols
    networks = _networks(args)
    config = _serve_config(args)
    print(f"kvstore open-loop at {args.rate:.0f} req/s on "
          f"{args.procs} procs (scale {args.scale}, "
          f"read fraction {args.read_fraction}, "
          f"zipf {args.zipf_s}, SLO {args.slo_us:.0f} µs)")
    cells = serving_cells([args.rate], protocols, networks,
                          args.scale, config, _serve_overrides(args))
    first = next(iter(cells))
    if args.tail:
        # The first cell captures its trace: one run gives its table
        # row and the tail attribution.
        cells[first] = replace(cells[first], trace=True)
    with _lab(args) as lab:
        results = lab.run_grid(cells)
    print(format_serving_table(
        [report for curve in serving_curves(cells, results,
                                            args.slo_us).values()
         for report in curve]))
    if args.tail:
        protocol, net_name, _rate = first
        print(f"\nslowest {args.tail} requests "
              f"({protocol}/{net_name}, cycles):")
        print(format_attribution_table(attribute_tail(
            CausalTrace.from_records(results[first].trace),
            top=args.tail)))
    return 0


def cmd_servesweep(args) -> int:
    """Capacity-planning sweep: SLO attainment and tail latency vs
    offered load for every (protocol, network) cell, through the
    shared lab (parallel + cached).  ``--out`` saves the curves as
    JSON (docs/serving.md)."""
    from repro.analysis.serving import (capacity_sweep,
                                        format_serving_table,
                                        sweep_to_json)

    protocols = args.protocols
    networks = _networks(args)
    config = _serve_config(args)
    print(f"kvstore capacity sweep, rates {args.rates} req/s on "
          f"{args.procs} procs (scale {args.scale}, "
          f"SLO {args.slo_us:.0f} µs)")
    with _lab(args) as lab:
        curves = capacity_sweep(
            rates_rps=args.rates, protocols=protocols, networks=networks,
            scale=args.scale, config=config, slo_us=args.slo_us,
            overrides=_serve_overrides(args), lab=lab)
        stats_line = lab.format_stats()
    for (protocol, net_name), reports in curves.items():
        print(f"\n{protocol}/{net_name}:")
        print(format_serving_table(reports))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(sweep_to_json(curves), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.out}")
    print(stats_line)
    return 0


def _timeseries_spec(args, trace: bool = False) -> RunSpec:
    """The windowed run the timeseries subcommands read: the kvstore
    serving workload (at ``--rate``, ``--requests``) when no app or
    ``kvstore`` is named, so the request columns are populated.  A
    window the spec rejects exits with a one-line error."""
    from repro.analysis.serving import serve_spec

    try:
        if args.app in (None, "kvstore"):
            overrides = ({} if args.requests is None
                         else {"requests": args.requests})
            spec = serve_spec(args.rate, args.protocol, _config(args),
                              args.scale, overrides)
        else:
            spec = _spec(args)
        return replace(spec, trace=trace, window_us=args.window_us)
    except ValueError as exc:
        raise SystemExit(f"timeseries: {exc}")


def _timeseries(args, trace: bool = False):
    """The windowed run, resolved through the lab, and its export
    under ``--slo-us``/``--slo-target``."""
    from repro.analysis.serving import timeseries

    spec = _timeseries_spec(args, trace=trace)
    with _lab(args) as lab:
        result = lab.run(spec)
    return result, timeseries(spec, result, args.slo_us, args.slo_target)


def cmd_timeseries_report(args) -> int:
    """Windowed telemetry table for one run: per-window events,
    messages, wire bytes, lock wait, queue depth, and — for the
    serving workload — completions, p50/p99, and SLO burn rate
    (docs/observability.md)."""
    from repro.obs import format_timeseries_table

    result, series = _timeseries(args)
    print(f"{result.app} on {args.procs} procs ({args.protocol}/"
          f"{args.network}), {args.window_us:g} µs windows, "
          f"SLO {args.slo_us:g} µs at {args.slo_target:g}")
    print(format_timeseries_table(series))
    windows = series["windows"]
    served = [w for w in windows if w["requests"]]
    print(f"\n{len(windows)} windows, "
          f"{sum(w['events'] for w in windows)} events")
    if served:
        print(f"peak p99 {max(w['p99_us'] for w in served):.1f} µs, "
              f"peak burn rate "
              f"{max(w['burn_rate'] for w in served):.2f}")
    return 0


def cmd_timeseries_export(args) -> int:
    """Export windowed telemetry as schema-versioned JSON; with
    ``--chrome FILE`` also write the run's Perfetto trace with the
    windows as counter tracks (docs/tracing.md)."""
    from repro.obs import (CausalTrace, chrome_trace,
                           validate_chrome_trace)

    result, series = _timeseries(args, trace=bool(args.chrome))
    with open(args.out, "w") as handle:
        handle.write(json.dumps(series, indent=1, sort_keys=True)
                     + "\n")
    print(f"wrote {args.out}: {len(series['windows'])} windows of "
          f"{args.window_us:g} µs")
    if args.chrome:
        exported = chrome_trace(CausalTrace.from_records(result.trace),
                                timeseries=series)
        errors = validate_chrome_trace(exported)
        if errors:
            for error in errors:
                print(f"schema error: {error}", file=sys.stderr)
            return 1
        with open(args.chrome, "w") as handle:
            json.dump(exported, handle)
            handle.write("\n")
        counters = sum(1 for e in exported["traceEvents"]
                       if e.get("ph") == "C")
        print(f"wrote {args.chrome}: "
              f"{len(exported['traceEvents'])} trace events, "
              f"{counters} counter samples")
    return 0


def _causal_trace(args):
    """A :class:`repro.obs.CausalTrace` for the trace subcommands:
    replay ``--from FILE`` if given, else the requested run's captured
    trace, resolved through the lab like any run."""
    from repro.obs import CausalTrace

    if args.from_file:
        return CausalTrace.from_jsonl(args.from_file)
    if args.app is None:
        raise SystemExit("trace: pass an app name or --from FILE")
    with _lab(args) as lab:
        result = lab.run(replace(_spec(args), trace=True))
    return CausalTrace.from_records(result.trace)


def cmd_trace_export(args) -> int:
    """Export a run's trace as Chrome trace-event JSON (load it at
    ui.perfetto.dev or chrome://tracing; message flow arrows link
    sends to receives)."""
    from repro.obs import chrome_trace, validate_chrome_trace

    trace = _causal_trace(args)
    exported = chrome_trace(trace)
    errors = validate_chrome_trace(exported)
    if errors:
        for error in errors:
            print(f"schema error: {error}", file=sys.stderr)
        return 1
    with open(args.out, "w") as handle:
        json.dump(exported, handle)
        handle.write("\n")
    n_events = len(exported["traceEvents"])
    n_flows = sum(1 for e in exported["traceEvents"]
                  if e.get("ph") == "s")
    print(f"wrote {args.out}: {n_events} trace events, "
          f"{n_flows} message flows, {len(trace.events)} raw events")
    return 0


def cmd_trace_critical_path(args) -> int:
    """Critical-path breakdown of one run: which compute, diff, wire,
    contention, and software-overhead cycles actually gated the
    elapsed time (docs/tracing.md)."""
    from repro.analysis.critical_path import critical_path

    trace = _causal_trace(args)
    result = critical_path(trace, keep_segments=args.segments)
    print(result.format())
    if args.segments:
        print()
        print(f"{'t0':>14s} {'t1':>14s} {'category':<11s} where")
        for seg in reversed(result.segments):
            print(f"{seg.t0:14.1f} {seg.t1:14.1f} "
                  f"{seg.category:<11s} {seg.where}")
    return 0


def cmd_trace_contention(args) -> int:
    """Per-lock, per-page, and per-link contention profiles (wait
    totals, maxima, and wait-time histograms) from one run's trace."""
    from repro.analysis.contention import (contention_report,
                                           format_contention)

    trace = _causal_trace(args)
    print(format_contention(contention_report(trace), top=args.top))
    return 0


def cmd_report(args) -> int:
    """Regenerate the full EXPERIMENTS.md report."""
    from repro.analysis.generate_report import generate
    with _lab(args) as lab:
        report = generate(scale=args.scale, lab=lab)
        stats_line = lab.format_stats()
    with open(args.output, "w") as handle:
        handle.write(report)
    print(f"wrote {args.output}")
    print(stats_line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Release-consistent software DSM simulator "
                    "(ISCA 1993 reproduction)")
    # A flag a subcommand does not register must exit 2, not be read
    # as a prefix of one it does (`--protocol li` as `--protocols li`).
    subparsers = dict(required=True, parser_class=functools.partial(
        argparse.ArgumentParser, allow_abbrev=False))
    sub = parser.add_subparsers(dest="command", **subparsers)

    def lab_flags(p):
        p.add_argument("--jobs", type=_positive_int, default=None,
                       metavar="N",
                       help="worker processes for the run matrix "
                            "(default: run serially in-process)")
        p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       dest="cache_dir", metavar="DIR",
                       help="content-addressed result cache "
                            f"(default: {DEFAULT_CACHE_DIR}/)")
        p.add_argument("--no-cache", action="store_true",
                       dest="no_cache",
                       help="always simulate; neither read nor write "
                            "the result cache")

    def common(p, with_app=True, app_optional=False, omit=(),
               lab=True):
        """The shared flags, minus those in ``omit`` (and the lab's
        with ``lab=False``): what a subcommand would ignore is not
        registered on it, so argparse rejects it."""
        def flag(name, **kwargs):
            if name not in omit:
                p.add_argument(name, **kwargs)

        if with_app:
            if app_optional:
                p.add_argument("app", nargs="?",
                               choices=CLI_APP_CHOICES,
                               default=None)
            else:
                p.add_argument("app", choices=CLI_APP_CHOICES)
        flag("--procs", type=_positive_int, default=8)
        flag("--protocol", choices=ALL_PROTOCOL_NAMES,
             default="lh")
        flag("--network", choices=NETWORK_NAMES, default="atm")
        flag("--bandwidth", type=_positive_hw_rate, default=100.0,
             help="Mbit/s (ATM only)")
        flag("--no-collisions", action="store_true")
        flag("--mhz", type=_positive_hw_rate, default=40.0)
        flag("--page-size", type=_page_size, default=4096)
        flag("--scale", choices=["small", "bench", "large"],
             default="bench")
        # Fault injection (docs/robustness.md).  Any non-zero rate,
        # stall, or crash enables the seeded injector and reliable
        # transport.
        flag("--loss", type=_probability, default=0.0,
             metavar="PROB",
             help="per-message drop probability in [0, 1)")
        flag("--dup", type=_probability, default=0.0,
             metavar="PROB",
             help="per-message duplication probability "
                  "in [0, 1)")
        flag("--reorder", type=_probability, default=0.0,
             metavar="PROB",
             help="per-message reorder probability "
                  "in [0, 1)")
        flag("--fault-seed", type=int, default=None,
             dest="fault_seed", metavar="SEED",
             help="fault-plan seed (default: machine seed)")
        flag("--stall", type=_parse_stall, action="append",
             metavar="PROC:AT_US:DUR_US",
             help="inject a CPU stall (repeatable)")
        flag("--crash", type=_parse_crash, action="append",
             metavar="PROC:AT_US[:DOWN_US]",
             help="crash a node at AT_US, recovering after "
                  "DOWN_US (omit DOWN_US for crash-stop; "
                  "repeatable)")
        flag("--crash-mttf", type=_nonnegative_us,
             default=0.0, dest="crash_mttf", metavar="US",
             help="mean time to failure per node (µs); "
                  "draws a seeded crash plan")
        flag("--crash-mttr", type=_nonnegative_us,
             default=0.0, dest="crash_mttr", metavar="US",
             help="mean time to repair (µs); 0 with "
                  "--crash-mttf means crash-stop")
        flag("--crash-horizon", type=_nonnegative_us,
             default=0.0, dest="crash_horizon", metavar="US",
             help="pre-draw crashes up to this time "
                  "(required with --crash-mttf)")
        if lab:
            lab_flags(p)

    p_run = sub.add_parser("run", help=cmd_run.__doc__)
    common(p_run)
    p_run.add_argument("--speedup", action="store_true",
                       help="also run the 1-proc baseline")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help=cmd_compare.__doc__)
    common(p_cmp, omit=("--protocol",))
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help=cmd_sweep.__doc__)
    common(p_sweep, omit=("--procs",))
    p_sweep.add_argument("--proc-list", type=_proc_list,
                         default="1,2,4,8,16", dest="proc_list")
    p_sweep.set_defaults(func=cmd_sweep)

    p_net = sub.add_parser("networks", help=cmd_networks.__doc__)
    # The five networks are Table 2's: there is none to choose.
    common(p_net, with_app=False,
           omit=("--network", "--bandwidth", "--no-collisions"))
    p_net.add_argument("--app", choices=APP_NAMES, default="jacobi")
    p_net.set_defaults(func=cmd_networks)

    p_stats = sub.add_parser("stats", help=cmd_stats.__doc__)
    common(p_stats, app_optional=True)
    p_stats.add_argument("--format", choices=["json", "table"],
                         default="json")
    p_stats.add_argument("--output", default=None,
                         help="write the dump to a file")
    p_stats.add_argument("--trace", default=None, metavar="FILE",
                         help="also write the run's JSONL event "
                              "trace (with --load: the saved "
                              "result's)")
    p_stats.add_argument("--save", default=None, metavar="FILE",
                         help="save the full RunResult as JSON "
                              "(reloadable with --load)")
    p_stats.add_argument("--load", default=None, metavar="FILE",
                         type=_saved_result,
                         help="inspect a saved RunResult (or lab "
                              "cache entry) instead of simulating")
    p_stats.set_defaults(func=cmd_stats)

    p_prof = sub.add_parser("profile", help=cmd_profile.__doc__)
    # The one in-process subcommand: no Lab, so no lab flags.
    common(p_prof, lab=False)
    p_prof.add_argument("--top", type=_nonnegative_int, default=15,
                        metavar="N",
                        help="rows in the hottest-functions table "
                             "(default: 15)")
    p_prof.set_defaults(func=cmd_profile)

    p_loss = sub.add_parser("losssweep", help=cmd_losssweep.__doc__)
    common(p_loss, omit=("--protocol", "--loss"))
    p_loss.add_argument("--rates", type=_list_arg(_probability),
                        default="0.0,0.001,0.01,0.05",
                        help="comma-separated drop probabilities "
                             "(first is the slowdown baseline)")
    p_loss.add_argument("--protocols", type=_protocol_list,
                        default=",".join(PROTOCOL_NAMES),
                        help="comma-separated protocol subset "
                             "(default: the paper's five)")
    p_loss.set_defaults(func=cmd_losssweep, loss=0.0)

    p_crash = sub.add_parser("crashsweep", help=cmd_crashsweep.__doc__)
    # The cells come from --protocols x --networks x --mttfs.
    common(p_crash,
           omit=("--protocol", "--network", "--crash", "--crash-mttf"))
    p_crash.add_argument("--mttfs", type=_list_arg(_nonnegative_us),
                         default="0,50000,20000",
                         help="comma-separated per-node MTTFs in µs "
                              "(0 = the crash-free baseline; pass it "
                              "first)")
    p_crash.add_argument("--protocols", type=_protocol_list,
                         default="li,lh",
                         help="comma-separated protocol subset "
                              "(default: li,lh)")
    p_crash.add_argument("--networks", type=_network_list,
                         default="ethernet,atm",
                         help="comma-separated networks "
                              "(default: ethernet,atm)")
    p_crash.add_argument("--max-events", type=_positive_int,
                         default=500_000, dest="max_events",
                         help="event budget per cell (crash-stop "
                              "cells never drain on their own)")
    p_crash.set_defaults(func=cmd_crashsweep, procs=4, scale="small",
                         crash=None, crash_mttf=0.0,
                         crash_mttr=5_000.0, crash_horizon=100_000.0)

    def serve_flags(p):
        p.add_argument("--protocols", type=_protocol_list,
                       default="li,lh",
                       help="comma-separated protocol subset "
                            "(default: li,lh)")
        p.add_argument("--networks", type=_network_list,
                       default="ethernet,atm",
                       help="comma-separated networks "
                            "(default: ethernet,atm)")
        p.add_argument("--read-fraction", type=_unit_fraction,
                       default=0.9, dest="read_fraction",
                       metavar="FRAC",
                       help="fraction of requests that are gets, "
                            "in [0, 1] (default: 0.9)")
        p.add_argument("--zipf-s", type=_zipf_exponent, default=0.99,
                       dest="zipf_s", metavar="S",
                       help="Zipf key-popularity exponent >= 0 "
                            "(0 = uniform; default: 0.99)")
        p.add_argument("--requests", type=_positive_int, default=None,
                       help="override the scaled request count")
        p.add_argument("--arrival", choices=["poisson", "fixed"],
                       default="poisson",
                       help="inter-arrival process (default: "
                            "poisson)")
        p.add_argument("--slo-us", type=_slo_us,
                       default=500.0, dest="slo_us", metavar="US",
                       help="latency SLO for attainment reporting "
                            "(default: 500 µs)")

    p_serve = sub.add_parser("serve", help=cmd_serve.__doc__)
    common(p_serve, with_app=False, omit=("--protocol", "--network"))
    serve_flags(p_serve)
    p_serve.add_argument("--rate", type=_positive_rate,
                         default=40_000.0, metavar="RPS",
                         help="offered load in requests/second "
                              "(> 0; default: 40000)")
    p_serve.add_argument("--tail", type=_nonnegative_int, default=0,
                         metavar="N",
                         help="also trace the first cell and "
                              "attribute the N slowest requests")
    p_serve.set_defaults(func=cmd_serve, procs=4, scale="small")

    p_ssweep = sub.add_parser("servesweep",
                              help=cmd_servesweep.__doc__)
    common(p_ssweep, with_app=False, omit=("--protocol", "--network"))
    serve_flags(p_ssweep)
    p_ssweep.add_argument("--rates", type=_list_arg(_positive_rate),
                          default="10000,20000,40000,80000",
                          help="comma-separated offered loads in "
                               "requests/second (each > 0)")
    p_ssweep.add_argument("--out", default=None, metavar="FILE",
                          help="save the sweep curves as JSON")
    p_ssweep.set_defaults(func=cmd_servesweep, procs=4, scale="small")

    p_ts = sub.add_parser(
        "timeseries",
        help="windowed telemetry: per-window events/messages/bytes, "
             "serving p50/p99 and SLO burn rate, JSON + Perfetto "
             "counter-track export")
    ts_sub = p_ts.add_subparsers(dest="action", **subparsers)

    def timeseries_common(p):
        common(p, app_optional=True)
        p.add_argument("--window-us", type=_window_us, default=200.0,
                       dest="window_us", metavar="US",
                       help="telemetry window in simulated µs (> 0 "
                            "and at least one scheduler tick; "
                            "default: 200)")
        p.add_argument("--rate", type=_positive_rate,
                       default=40_000.0, metavar="RPS",
                       help="offered load for the default kvstore "
                            "workload (default: 40000)")
        p.add_argument("--requests", type=_positive_int, default=None,
                       help="override the scaled request count "
                            "(kvstore workload only)")
        p.add_argument("--slo-us", type=_slo_us,
                       default=500.0, dest="slo_us", metavar="US",
                       help="latency SLO for the burn-rate series, "
                            "applied when the windows are read "
                            "(default: 500 µs)")
        p.add_argument("--slo-target", type=_slo_target,
                       default=0.999, dest="slo_target",
                       metavar="FRAC",
                       help="SLO attainment target in (0, 1) "
                            "(default: 0.999)")
        p.set_defaults(procs=4, scale="small")

    p_tsrep = ts_sub.add_parser("report",
                                help=cmd_timeseries_report.__doc__)
    timeseries_common(p_tsrep)
    p_tsrep.set_defaults(func=cmd_timeseries_report)

    p_tsexp = ts_sub.add_parser("export",
                                help=cmd_timeseries_export.__doc__)
    timeseries_common(p_tsexp)
    p_tsexp.add_argument("--out", default="timeseries.json",
                         metavar="FILE",
                         help="windowed-telemetry JSON output "
                              "(default: timeseries.json)")
    p_tsexp.add_argument("--chrome", default=None, metavar="FILE",
                         help="also write the Perfetto trace with "
                              "counter tracks")
    p_tsexp.set_defaults(func=cmd_timeseries_export)

    p_trace = sub.add_parser(
        "trace",
        help="causal-trace tools: Chrome/Perfetto export, "
             "critical-path breakdown, contention profiles")
    trace_sub = p_trace.add_subparsers(dest="action", **subparsers)

    def trace_common(p):
        common(p, app_optional=True)
        p.add_argument("--from", dest="from_file", default=None,
                       metavar="FILE",
                       help="replay a JSONL trace (e.g. from "
                            "`stats --trace`) instead of reading the "
                            "run's captured trace")

    p_texp = trace_sub.add_parser("export",
                                  help=cmd_trace_export.__doc__)
    trace_common(p_texp)
    p_texp.add_argument("--out", default="trace.json", metavar="FILE",
                        help="Chrome trace-event JSON output "
                             "(default: trace.json)")
    p_texp.set_defaults(func=cmd_trace_export)

    p_tcp = trace_sub.add_parser("critical-path",
                                 help=cmd_trace_critical_path.__doc__)
    trace_common(p_tcp)
    p_tcp.add_argument("--segments", action="store_true",
                       help="also print every attributed span of the "
                            "path, oldest first")
    p_tcp.set_defaults(func=cmd_trace_critical_path)

    p_tcon = trace_sub.add_parser("contention",
                                  help=cmd_trace_contention.__doc__)
    trace_common(p_tcon)
    p_tcon.add_argument("--top", type=_positive_int, default=10,
                        metavar="N",
                        help="rows per table (default: 10)")
    p_tcon.set_defaults(func=cmd_trace_contention)

    p_rep = sub.add_parser("report", help=cmd_report.__doc__)
    p_rep.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    p_rep.add_argument("--scale", choices=["small", "bench", "large"],
                       default="bench")
    lab_flags(p_rep)
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
