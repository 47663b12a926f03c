"""Latency percentiles, SLO reports, capacity sweeps, and tail
attribution (docs/serving.md)."""

import pytest

from repro.analysis.serving import (attribute_tail, build_report,
                                    capacity_sweep,
                                    format_attribution_table,
                                    format_serving_table, percentile,
                                    serving_cells, serving_curves,
                                    sweep_to_json)
from repro.core.config import MachineConfig, NetworkConfig
from repro.core.runner import run_app
from repro.apps import create_app
from repro.lab import Lab
from repro.obs import CausalTrace, MemorySink, Observability, Tracer

SMALL = dict(requests=40, read_fraction=0.9, zipf_s=0.99)


# -- percentiles against hand-computed fixtures -------------------------


def test_percentile_nearest_rank_hand_fixtures():
    values = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0,
              100.0]
    # Nearest rank: sorted[ceil(p/100 * 10) - 1].
    assert percentile(values, 50) == 50.0    # ceil(5) -> index 4
    assert percentile(values, 90) == 90.0    # ceil(9) -> index 8
    assert percentile(values, 99) == 100.0   # ceil(9.9) -> index 9
    assert percentile(values, 99.9) == 100.0
    assert percentile(values, 100) == 100.0
    assert percentile(values, 10) == 10.0
    assert percentile(values, 1) == 10.0     # ceil(0.1) -> index 0


def test_percentile_single_and_empty():
    assert percentile([], 99) == 0.0
    assert percentile([42.0], 50) == 42.0
    assert percentile([42.0], 99.9) == 42.0


def test_percentile_rejects_out_of_domain():
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_build_report_hand_fixture():
    # Two requests at 40 cycles/us: latencies 400 and 4000 cycles
    # (10 us and 100 us), arrivals at 0 and 400 cycles, last done at
    # 4400 cycles = 110 us -> 2 requests / 110 us.
    app_result = [
        {"proc": 0, "requests": [[0, 1, 1, 0.0, 0.0, 400.0]]},
        {"proc": 1, "requests": [[1, 2, 0, 400.0, 400.0, 4400.0]]},
    ]
    report = build_report(app_result, cpu_mhz=40.0, protocol="lh",
                          network="atm", offered_rps=20_000.0,
                          slo_us=50.0)
    assert report.completed == 2
    assert report.p50_us == pytest.approx(10.0)
    assert report.p99_us == pytest.approx(100.0)
    assert report.p999_us == pytest.approx(100.0)
    assert report.max_us == pytest.approx(100.0)
    assert report.mean_us == pytest.approx(55.0)
    assert report.slo_attainment == pytest.approx(0.5)
    assert report.achieved_rps == pytest.approx(2 / 110e-6)


def test_build_report_empty():
    report = build_report([], cpu_mhz=40.0, protocol="lh",
                          network="atm", offered_rps=1.0)
    assert report.completed == 0
    assert report.achieved_rps == 0.0
    assert report.slo_attainment == 0.0


# -- grid and sweep through the lab -------------------------------------


def test_serving_grid_covers_protocols_x_networks():
    cells = serving_cells(
        [40_000.0], protocols=("li", "lh"),
        networks=(("ethernet", NetworkConfig.ethernet()),
                  ("atm", NetworkConfig.atm())),
        scale="small", config=MachineConfig(nprocs=4), overrides=SMALL)
    with Lab() as lab:
        curves = serving_curves(cells, lab.run_grid(cells))
    reports = [report for curve in curves.values() for report in curve]
    assert [(r.protocol, r.network) for r in reports] == [
        ("li", "ethernet"), ("li", "atm"),
        ("lh", "ethernet"), ("lh", "atm")]
    for report in reports:
        assert report.completed == SMALL["requests"]
        assert report.p50_us <= report.p99_us <= report.p999_us
        assert report.p999_us <= report.max_us
    table = format_serving_table(reports)
    assert "p999us" in table
    assert len(table.splitlines()) == 5


def test_capacity_sweep_orders_rates_and_serializes():
    rates = [10_000.0, 80_000.0]
    with Lab() as lab:
        curves = capacity_sweep(
            rates_rps=rates, protocols=("lh",),
            networks=(("atm", NetworkConfig.atm()),),
            scale="small", config=MachineConfig(nprocs=4),
            overrides=SMALL, lab=lab)
    points = curves[("lh", "atm")]
    assert [p.offered_rps for p in points] == rates
    # More offered load cannot improve SLO attainment.
    assert points[0].slo_attainment >= points[1].slo_attainment
    dump = sweep_to_json(curves)
    assert dump["cells"][0]["protocol"] == "lh"
    assert len(dump["cells"][0]["points"]) == 2
    import json
    json.dumps(dump)  # must be JSON-clean for the CI artifact


def test_capacity_sweep_rejects_empty_rates():
    with pytest.raises(ValueError, match="non-empty"):
        capacity_sweep(rates_rps=[])


# -- tail attribution ---------------------------------------------------


def _traced_run():
    sink = MemorySink()
    obs = Observability(tracer=Tracer(sink))
    run_app(create_app("kvstore", nkeys=16, value_words=8, shards=4,
                       requests=60, rate_rps=40_000.0),
            MachineConfig(nprocs=4, network=NetworkConfig.atm()),
            protocol="lh", obs=obs)
    return CausalTrace(sink.events)


def test_attribute_tail_decomposes_slowest_requests():
    trace = _traced_run()
    assert len(trace.requests) == 60
    rows = attribute_tail(trace, top=5)
    assert len(rows) == 5
    latencies = [r.latency for r in rows]
    assert latencies == sorted(latencies, reverse=True)
    # The slowest requests are the tail of the trace's own index.
    worst = max(trace.requests.values(), key=lambda r: r.latency)
    assert rows[0].req_id == worst.req_id
    for row in rows:
        assert row.queue_wait >= 0
        assert row.overhead >= 0
        # Queue wait plus service-window parts covers the latency
        # (overhead is the clamped residual of the service window).
        service_parts = (row.compute + row.diff + row.wire
                         + row.contention + row.overhead)
        assert row.queue_wait + service_parts >= row.latency * 0.99
    table = format_attribution_table(rows)
    assert len(table.splitlines()) == 6
    assert "queue" in table.splitlines()[0]


def test_requests_index_links_arrive_and_done():
    trace = _traced_run()
    for record in trace.requests.values():
        assert record.done_ts is not None
        assert record.start_ts is not None
        assert record.start_ts >= record.arrival
        assert record.latency == pytest.approx(
            record.done_ts - record.arrival)
        assert record.queue_wait == pytest.approx(
            record.start_ts - record.arrival)


# -- windowed latency series (docs/observability.md) --------------------


def test_windowed_reports_hand_fixture():
    # 40 cycles/µs, 100 µs windows (4000 cycles).  Completions at
    # 400, 4400, and 8400 cycles land in windows 0, 1, and 2;
    # latencies 10 µs, 100 µs, and 150 µs against a 50 µs SLO at a
    # 0.9 target give burn rates 0, 10, 10 (violating fraction / 0.1).
    from repro.analysis.serving import windowed_reports

    app_result = [
        {"proc": 0, "requests": [[0, 1, 1, 0.0, 0.0, 400.0],
                                 [2, 3, 0, 2400.0, 2400.0, 8400.0]]},
        {"proc": 1, "requests": [[1, 2, 0, 400.0, 400.0, 4400.0]]},
    ]
    windows = windowed_reports(app_result, cpu_mhz=40.0,
                               window_us=100.0, slo_us=50.0,
                               slo_target=0.9)
    assert [w.completed for w in windows] == [1, 1, 1]
    assert windows[0].t0_us == 0.0 and windows[0].t1_us == 100.0
    assert windows[0].p99_us == pytest.approx(10.0)
    assert windows[0].burn_rate == 0.0
    assert windows[1].p50_us == pytest.approx(100.0)
    assert windows[1].burn_rate == pytest.approx(10.0)
    assert windows[2].p99_us == pytest.approx(150.0)
    assert windows[2].slo_violations == 1


def test_windowed_reports_emits_empty_windows_between():
    from repro.analysis.serving import windowed_reports

    app_result = [{"proc": 0,
                   "requests": [[0, 1, 0, 0.0, 0.0, 400.0],
                                [1, 1, 0, 0.0, 0.0, 12400.0]]}]
    windows = windowed_reports(app_result, cpu_mhz=40.0,
                               window_us=100.0)
    assert len(windows) == 4  # completions in windows 0 and 3
    assert [w.completed for w in windows] == [1, 0, 0, 1]
    assert windows[1].burn_rate == 0.0
    assert windows[1].p99_us == 0.0


def test_windowed_reports_validation_and_empty():
    from repro.analysis.serving import windowed_reports

    assert windowed_reports([], cpu_mhz=40.0, window_us=100.0) == []
    with pytest.raises(ValueError, match="window must be > 0"):
        windowed_reports([], cpu_mhz=40.0, window_us=0.0)
    with pytest.raises(ValueError, match=r"within \(0, 1\)"):
        windowed_reports([], cpu_mhz=40.0, window_us=1.0,
                         slo_target=1.5)


def test_windowed_reports_matches_live_sampler():
    # The post-hoc series lies on the live sampler's grid: each
    # report window spans the sampled window of its index, and every
    # completion falls inside the sampled run.
    from repro.analysis.serving import windowed_reports
    from repro.obs import TimeseriesSampler
    from repro.serve.workload import SERVE_APP_PARAMS

    config = MachineConfig(nprocs=4, network=NetworkConfig.atm())
    sampler = TimeseriesSampler(window_us=200.0)
    result = run_app(create_app("kvstore", **SERVE_APP_PARAMS["small"]),
                     config, protocol="lh", sampler=sampler)
    posthoc = windowed_reports(result.app_result, config.cpu_mhz,
                               window_us=200.0)
    assert sum(w.completed for w in posthoc) == \
        SERVE_APP_PARAMS["small"]["requests"]
    assert len(posthoc) <= len(sampler.windows)
    for report, window in zip(posthoc, sampler.windows):
        assert report.t0_us * config.cpu_mhz == window["t0_cycles"]
        assert window["t1_cycles"] <= report.t1_us * config.cpu_mhz
