"""Serving analysis: throughput, tail latency, SLO attainment.

The paper reports speedups; a service reports *percentiles*.  This
module turns a kvstore run's per-request records (``[req_id, key,
is_write, arrival, started, done]`` in cycles, see
:class:`repro.apps.base.EventDrivenApplication`) into the numbers
capacity planning needs:

- **throughput** — offered (the generator's rate) vs achieved
  (completions over the span they took), which diverge exactly when
  the system saturates;
- **latency percentiles** — p50/p99/p999 by the nearest-rank rule
  (``sorted[ceil(p/100 * n) - 1]``), measured from each request's
  *scheduled* arrival so queueing delay lands in the tail;
- **SLO attainment** — the fraction of requests at or under a target
  latency, swept against offered load to find the knee;
- **tail attribution** — the slowest requests decomposed through the
  causal trace (:mod:`repro.obs.causal`) into queue wait, compute,
  diff/seal work, wire time, medium contention, and residual
  protocol overhead.

All sweeps route through the shared :class:`repro.lab.Lab`, so cells
run in parallel and cache across sessions like every other driver.
The same records give a windowed run its serving columns
(:func:`timeseries`), so the SLO is chosen when the windows are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.config import MachineConfig, NetworkConfig
from repro.core.metrics import RunResult
from repro.lab import Lab, RunSpec
from repro.obs.causal import CausalTrace
from repro.obs.timeseries import TIMESERIES_SCHEMA, window_cycles
from repro.serve.workload import SERVE_APP_PARAMS, validate_workload

DEFAULT_NETWORKS: Tuple[Tuple[str, NetworkConfig], ...] = (
    ("ethernet", NetworkConfig.ethernet()),
    ("atm", NetworkConfig.atm()))

#: Default SLO latency threshold (µs) and attainment target; the burn
#: rate of a window is ``violation_fraction / (1 - slo_target)`` — the
#: SRE convention where 1.0 means "spending error budget exactly as
#: fast as the target allows".
DEFAULT_SLO_US = 500.0
DEFAULT_SLO_TARGET = 0.999

#: A window's serving columns, as no completion leaves them.
IDLE_COLUMNS = {"requests": 0, "slo_violations": 0, "p50_us": 0.0,
                "p99_us": 0.0, "burn_rate": 0.0}


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence (the one
    rule behind every latency percentile: :func:`build_report` and
    :func:`windowed_reports`)."""
    if not values:
        return 0.0
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    rank = max(1, math.ceil(p / 100.0 * len(values)))
    return float(values[rank - 1])


@dataclass(frozen=True)
class ServingReport:
    """One (protocol, network, offered load) cell of a serving run."""

    protocol: str
    network: str
    offered_rps: float
    achieved_rps: float
    completed: int
    p50_us: float
    p99_us: float
    p999_us: float
    mean_us: float
    max_us: float
    slo_us: float
    slo_attainment: float    # fraction of requests at/under slo_us


def request_records(app_result) -> List[List[float]]:
    """Flatten a kvstore ``RunResult.app_result`` into one request
    list (cached results round-trip through JSON, hence the duck
    typing on dicts)."""
    records: List[List[float]] = []
    for per_proc in app_result or []:
        if per_proc:
            records.extend(per_proc["requests"])
    return records


def build_report(app_result, cpu_mhz: float, protocol: str,
                 network: str, offered_rps: float,
                 slo_us: float = DEFAULT_SLO_US) -> ServingReport:
    """Digest one run's request records (cycles -> microseconds at
    ``cpu_mhz`` cycles/us)."""
    records = request_records(app_result)
    latencies = sorted((done - arrival) / cpu_mhz
                       for _id, _key, _w, arrival, _s, done
                       in records)
    completed = len(latencies)
    if records:
        first = min(rec[3] for rec in records)
        last = max(rec[5] for rec in records)
        span_s = max(last - first, 1.0) / cpu_mhz / 1e6
        achieved = completed / span_s
        attained = sum(1 for lat in latencies if lat <= slo_us)
    else:
        achieved = 0.0
        attained = 0
    return ServingReport(
        protocol=protocol, network=network,
        offered_rps=offered_rps, achieved_rps=achieved,
        completed=completed,
        p50_us=percentile(latencies, 50),
        p99_us=percentile(latencies, 99),
        p999_us=percentile(latencies, 99.9),
        mean_us=sum(latencies) / completed if completed else 0.0,
        max_us=latencies[-1] if latencies else 0.0,
        slo_us=slo_us,
        slo_attainment=attained / completed if completed else 0.0)


@dataclass(frozen=True)
class WindowReport:
    """One time window of a serving run's latency series."""

    index: int
    t0_us: float
    t1_us: float
    completed: int
    p50_us: float
    p99_us: float
    slo_violations: int
    burn_rate: float


def windowed_reports(app_result, cpu_mhz: float, window_us: float,
                     slo_us: float = DEFAULT_SLO_US,
                     slo_target: float = DEFAULT_SLO_TARGET
                     ) -> List[WindowReport]:
    """Post-hoc windowing of a run's request records: per-window
    completions, nearest-rank p50/p99, and SLO burn rate.

    Requests group into the fixed grid ``[k*w, (k+1)*w)`` by
    *completion* time (the sampled windows' grid, so a request lands
    in the window its completion event dispatched in), latencies
    measured from the scheduled arrival.  Being a pure function of
    the cached ``app_result``, this powers the report timeline and
    :func:`timeseries` without re-running anything."""
    if not window_us > 0:
        raise ValueError(f"window must be > 0 µs, got {window_us}")
    if not 0.0 < slo_target < 1.0:
        raise ValueError(
            f"SLO target must be within (0, 1), got {slo_target}")
    records = request_records(app_result)
    if not records:
        return []
    window_cycles = window_us * cpu_mhz
    by_window: Dict[int, List[float]] = {}
    for _id, _key, _w, arrival, _s, done in records:
        by_window.setdefault(int(done // window_cycles), []).append(
            (done - arrival) / cpu_mhz)
    out: List[WindowReport] = []
    for index in range(max(by_window) + 1):
        latencies = sorted(by_window.get(index, []))
        completed = len(latencies)
        violations = sum(1 for lat in latencies if lat > slo_us)
        out.append(WindowReport(
            index=index,
            t0_us=index * window_us,
            t1_us=(index + 1) * window_us,
            completed=completed, p50_us=percentile(latencies, 50),
            p99_us=percentile(latencies, 99),
            slo_violations=violations,
            burn_rate=(violations / completed / (1.0 - slo_target)
                       if completed else 0.0)))
    return out


def timeseries(spec: RunSpec, result: RunResult,
               slo_us: float = DEFAULT_SLO_US,
               slo_target: float = DEFAULT_SLO_TARGET) -> dict:
    """The schema-versioned export of a windowed run
    (``spec.window_us``) read under one SLO: each of
    ``result.windows`` joined with its serving columns from
    :func:`windowed_reports` over the run's request records
    (:data:`IDLE_COLUMNS` where no request completed)."""
    cpu_mhz = spec.config.cpu_mhz
    reports = (windowed_reports(result.app_result, cpu_mhz,
                                spec.window_us, slo_us, slo_target)
               if "serve.requests_total" in result.registry else [])
    columns = {r.index: {"requests": r.completed,
                         "slo_violations": r.slo_violations,
                         "p50_us": r.p50_us, "p99_us": r.p99_us,
                         "burn_rate": r.burn_rate} for r in reports}
    return {"schema": TIMESERIES_SCHEMA, "window_us": spec.window_us,
            "window_cycles": window_cycles(spec.window_us, cpu_mhz),
            "cpu_mhz": cpu_mhz, "slo_us": slo_us,
            "slo_target": slo_target,
            "windows": [{**window, **columns.get(window["index"],
                                                  IDLE_COLUMNS)}
                        for window in result.windows]}


def serve_spec(rate_rps: float, protocol: str = "lh",
               config: Optional[MachineConfig] = None,
               scale: str = "small",
               overrides: Optional[dict] = None) -> RunSpec:
    """The kvstore run at one offered load: the ``scale`` workload
    with ``overrides`` on top, validated."""
    params = dict(SERVE_APP_PARAMS[scale])
    params["rate_rps"] = rate_rps
    params.update(overrides or {})
    validate_workload(params["rate_rps"], params["read_fraction"],
                      params["zipf_s"], nkeys=params["nkeys"],
                      requests=params["requests"],
                      nclients=params["nclients"],
                      arrival=params.get("arrival", "poisson"))
    return RunSpec("kvstore", params, protocol=protocol,
                   config=config or MachineConfig(nprocs=4))


def serving_cells(rates_rps: Sequence[float],
                  protocols: Sequence[str] = ("li", "lh"),
                  networks: Sequence[Tuple[str, NetworkConfig]] =
                  DEFAULT_NETWORKS,
                  scale: str = "small",
                  config: Optional[MachineConfig] = None,
                  overrides: Optional[dict] = None
                  ) -> Dict[Tuple[str, str, float], RunSpec]:
    """Every (protocol, network, rate) cell of a serving study, keyed
    in that order."""
    if not rates_rps:
        raise ValueError("rates_rps must be non-empty")
    base = config or MachineConfig(nprocs=4)
    return {(protocol, net_name, rate): serve_spec(
                rate, protocol, base.replace(network=network), scale,
                overrides)
            for protocol in protocols
            for net_name, network in networks
            for rate in rates_rps}


def serving_curves(cells: Dict[Tuple[str, str, float], RunSpec],
                   results: Dict[Tuple[str, str, float], RunResult],
                   slo_us: float = DEFAULT_SLO_US
                   ) -> Dict[Tuple[str, str], List[ServingReport]]:
    """One report list per (protocol, network), in the cells' rate
    order."""
    curves: Dict[Tuple[str, str], List[ServingReport]] = {}
    for (protocol, net_name, rate), spec in cells.items():
        curves.setdefault((protocol, net_name), []).append(
            build_report(results[protocol, net_name, rate].app_result,
                         spec.config.cpu_mhz, protocol, net_name,
                         offered_rps=rate, slo_us=slo_us))
    return curves


def capacity_sweep(rates_rps: Sequence[float],
                   protocols: Sequence[str] = ("li", "lh"),
                   networks: Sequence[Tuple[str, NetworkConfig]] =
                   DEFAULT_NETWORKS,
                   scale: str = "small",
                   config: Optional[MachineConfig] = None,
                   slo_us: float = DEFAULT_SLO_US,
                   overrides: Optional[dict] = None,
                   lab: Optional[Lab] = None
                   ) -> Dict[Tuple[str, str], List[ServingReport]]:
    """SLO-attainment curves vs offered load: every (protocol,
    network) cell at every rate, one Lab batch (parallel + cached).
    The per-cell report lists follow ``rates_rps`` order."""
    cells = serving_cells(rates_rps, protocols, networks, scale, config,
                          overrides)
    lab = lab if lab is not None else Lab()
    return serving_curves(cells, lab.run_grid(cells), slo_us)


@dataclass(frozen=True)
class TailAttribution:
    """Where one slow request's latency went (all cycles)."""

    req_id: int
    node: int
    key: int
    op: str
    latency: float
    queue_wait: float    # scheduled arrival -> dequeued
    compute: float       # application compute in the service window
    diff: float          # interval-seal (twin/diff) work
    wire: float          # serialization of messages the node touched
    contention: float    # medium/port wait of those messages
    overhead: float      # residual: handlers, stack, remote service


def attribute_tail(trace: CausalTrace,
                   top: int = 5) -> List[TailAttribution]:
    """Decompose the ``top`` slowest requests in a trace.

    Latency splits at the dequeue point: ``(arrival, start]`` is pure
    queue wait (earlier arrivals held the node), and the service
    window ``(start, done]`` decomposes into compute spans, seal
    (diff) costs, wire and contention time of messages the node sent
    in the window, and a residual overhead (handler execution, remote
    service time).  The split is attribution, not an exact partition
    — concurrent handler work can overlap — but it ranks the
    contributors, which is what tail hunting needs."""
    finished = [r for r in trace.requests.values()
                if r.done_ts is not None and r.arrival is not None
                and r.start_ts is not None]
    finished.sort(key=lambda r: r.latency, reverse=True)
    out: List[TailAttribution] = []
    for record in finished[:top]:
        lo, hi = record.start_ts, record.done_ts
        node = record.node
        compute = sum(c for _s, _e, c
                      in trace.compute_spans_in(node, lo, hi))
        diff = trace.seal_cost_in(node, lo, hi)
        wire = contention = 0.0
        for msg in trace.messages.values():
            if msg.send_ts is None or not lo < msg.send_ts <= hi:
                continue
            if msg.src == node or msg.dst == node:
                wire += msg.wire
                contention += msg.waited + msg.backoff
        service = hi - lo
        accounted = compute + diff + wire + contention
        out.append(TailAttribution(
            req_id=record.req_id, node=node, key=record.key,
            op=record.op, latency=record.latency,
            queue_wait=record.queue_wait, compute=compute,
            diff=diff, wire=wire, contention=contention,
            overhead=max(0.0, service - accounted)))
    return out


def format_serving_table(reports: Sequence[ServingReport]) -> str:
    """Fixed-width rendering of serving reports."""
    lines = [f"{'proto':>6s} {'network':>9s} {'offered':>9s} "
             f"{'achieved':>9s} {'done':>5s} {'p50us':>8s} "
             f"{'p99us':>8s} {'p999us':>8s} {'maxus':>8s} "
             f"{'slo':>7s}"]
    for r in reports:
        lines.append(
            f"{r.protocol:>6s} {r.network:>9s} "
            f"{r.offered_rps:9.0f} {r.achieved_rps:9.0f} "
            f"{r.completed:5d} {r.p50_us:8.1f} {r.p99_us:8.1f} "
            f"{r.p999_us:8.1f} {r.max_us:8.1f} "
            f"{r.slo_attainment:7.2%}")
    return "\n".join(lines)


def format_attribution_table(
        rows: Sequence[TailAttribution]) -> str:
    """Fixed-width rendering of tail attributions (cycles)."""
    lines = [f"{'req':>6s} {'node':>4s} {'key':>5s} {'op':>4s} "
             f"{'latency':>9s} {'queue':>8s} {'compute':>8s} "
             f"{'diff':>7s} {'wire':>8s} {'contend':>8s} "
             f"{'ovh':>8s}"]
    for r in rows:
        lines.append(
            f"{r.req_id:6d} {r.node:4d} {r.key:5d} {r.op:>4s} "
            f"{r.latency:9.0f} {r.queue_wait:8.0f} "
            f"{r.compute:8.0f} {r.diff:7.0f} {r.wire:8.0f} "
            f"{r.contention:8.0f} {r.overhead:8.0f}")
    return "\n".join(lines)


def sweep_to_json(curves: Dict[Tuple[str, str],
                               List[ServingReport]]) -> dict:
    """JSON-ready dump of a capacity sweep (the CI artifact)."""
    return {
        "cells": [
            {"protocol": protocol, "network": network,
             "points": [vars(report) for report in reports]}
            for (protocol, network), reports in curves.items()
        ]
    }
