"""Unit coverage for the metrics registry (repro.obs.registry)."""

import json

import pytest

from repro.obs import (CATALOG, CATALOG_BY_NAME, DEFAULT_BUCKETS,
                       MetricError, MetricsRegistry, MetricSpec,
                       install)
from repro.obs.catalog import COUNTER, GAUGE, HISTOGRAM


# -- counters ----------------------------------------------------------

def test_counter_starts_at_zero_and_accumulates():
    registry = MetricsRegistry()
    counter = registry.counter("test.hits_total", unit="hits")
    assert counter.total() == 0
    counter.inc()
    counter.inc(4)
    assert counter.total() == 5


def test_counter_rejects_negative_increment():
    registry = MetricsRegistry()
    counter = registry.counter("test.hits_total")
    with pytest.raises(MetricError):
        counter.inc(-1)


def test_counter_float_increments_preserve_value():
    registry = MetricsRegistry()
    counter = registry.counter("test.cycles_total", unit="cycles")
    counter.inc(0.25)
    counter.inc(0.5)
    assert counter.total() == 0.75


# -- gauges ------------------------------------------------------------

def test_gauge_set_and_set_max():
    registry = MetricsRegistry()
    gauge = registry.from_spec(MetricSpec(name="test.depth", kind=GAUGE,
                                          unit="", description=""))
    gauge.set(7)
    assert gauge.total() == 7
    gauge.set_max(3)          # lower: ignored
    assert gauge.total() == 7
    gauge.set_max(12)         # higher: taken
    assert gauge.total() == 12
    gauge.set(1)              # plain set always wins
    assert gauge.total() == 1


# -- histograms --------------------------------------------------------

def test_histogram_count_sum_min_max_buckets():
    registry = MetricsRegistry()
    hist = registry.from_spec(MetricSpec(
        name="test.wait_cycles", kind=HISTOGRAM, unit="cycles",
        description="", buckets=(10.0, 100.0)))
    for value in (5.0, 50.0, 500.0, 7.0):
        hist.observe(value)
    child = hist.labels()
    assert child.count == 4
    assert child.sum == 562.0
    assert child.min == 5.0
    assert child.max == 500.0
    # buckets: <=10 -> 2, <=100 -> 1, +inf -> 1
    assert child.buckets == [2, 1, 1]
    snap = child.snapshot()
    assert snap["count"] == 4
    assert snap["buckets"] == {"10.0": 2, "100.0": 1, "+inf": 1}


def test_histogram_total_is_sum_of_sums():
    registry = MetricsRegistry()
    hist = registry.histogram("test.wait_cycles", labels=("node",))
    hist.labels(node="0").observe(3.0)
    hist.labels(node="1").observe(4.0)
    assert hist.total() == 7.0


def test_default_buckets_are_increasing():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


# -- labels ------------------------------------------------------------

def test_labels_create_independent_children():
    registry = MetricsRegistry()
    counter = registry.counter("test.msgs_total",
                               labels=("node", "msg_type"))
    counter.labels(node="0", msg_type="page_req").inc()
    counter.labels(node="0", msg_type="page_req").inc()
    counter.labels(node="1", msg_type="page_reply").inc()
    assert counter.total() == 3
    assert counter.by_label("node") == {"0": 2, "1": 1}
    assert counter.by_label("msg_type") == {"page_req": 2,
                                            "page_reply": 1}


def test_labels_returns_same_child_for_same_values():
    registry = MetricsRegistry()
    counter = registry.counter("test.msgs_total", labels=("node",))
    assert counter.labels(node="3") is counter.labels(node=3)


def test_wrong_label_names_raise():
    registry = MetricsRegistry()
    counter = registry.counter("test.msgs_total", labels=("node",))
    with pytest.raises(MetricError):
        counter.labels(proc="0")
    with pytest.raises(MetricError):
        counter.labels()


def test_labelled_metric_rejects_bare_inc():
    registry = MetricsRegistry()
    counter = registry.counter("test.msgs_total", labels=("node",))
    with pytest.raises(MetricError):
        counter.inc()


def test_by_label_unknown_label_raises():
    registry = MetricsRegistry()
    counter = registry.counter("test.msgs_total", labels=("node",))
    with pytest.raises(MetricError):
        counter.by_label("proto")


# -- registration ------------------------------------------------------

def test_reregistration_same_spec_returns_same_metric():
    registry = MetricsRegistry()
    a = registry.counter("test.hits_total", unit="hits")
    b = registry.counter("test.hits_total", unit="hits")
    assert a is b


def test_reregistration_with_conflicting_spec_raises():
    registry = MetricsRegistry()
    registry.from_spec(MetricSpec(name="test.x", kind=COUNTER,
                                  unit="", description=""))
    with pytest.raises(MetricError):
        registry.from_spec(MetricSpec(name="test.x", kind=COUNTER,
                                      unit="things", description=""))


def test_catalogued_name_with_wrong_kind_raises():
    with pytest.raises(MetricError):
        MetricsRegistry().histogram("dsm.messages_total")


def test_get_unknown_metric_raises():
    registry = MetricsRegistry()
    with pytest.raises(MetricError):
        registry.get("no.such.metric")
    with pytest.raises(MetricError):
        registry.total("no.such.metric")
    assert "no.such.metric" not in registry


def test_install_catalog_registers_every_spec_idempotently():
    from repro.obs import ROBUSTNESS_CATALOG

    registry = MetricsRegistry()
    install(registry, CATALOG)
    install(registry, CATALOG)  # second install is a no-op
    # The base catalogue alone: robustness metrics are installed only
    # when the fault/transport subsystem is active, so a fault-free
    # dump stays identical to pre-subsystem builds.
    assert set(registry.names()) == {spec.name for spec in CATALOG}
    assert len(registry.names()) == len(CATALOG)
    for spec in CATALOG:
        assert registry.get(spec.name).spec is spec
        assert spec.kind in (COUNTER, GAUGE, HISTOGRAM)
    install(registry, ROBUSTNESS_CATALOG)
    install(registry, ROBUSTNESS_CATALOG)  # idempotent too
    assert len(registry.names()) == len(CATALOG) + len(
        ROBUSTNESS_CATALOG)
    for spec in ROBUSTNESS_CATALOG:
        assert registry.get(spec.name).spec is spec
    # The harness tier (repro.lab).
    from repro.obs import LAB_CATALOG
    install(registry, LAB_CATALOG)
    install(registry, LAB_CATALOG)  # idempotent too
    for spec in LAB_CATALOG:
        assert registry.get(spec.name).spec is spec
    # The memory-substrate tier (repro.mem.instrument).
    from repro.obs import MEM_CATALOG
    install(registry, MEM_CATALOG)
    install(registry, MEM_CATALOG)  # idempotent too
    for spec in MEM_CATALOG:
        assert registry.get(spec.name).spec is spec
    # The serving tier (repro.apps.kvstore) completes the catalogue.
    from repro.obs import SERVE_CATALOG
    install(registry, SERVE_CATALOG)
    install(registry, SERVE_CATALOG)  # idempotent too
    assert set(registry.names()) == set(CATALOG_BY_NAME)
    for spec in SERVE_CATALOG:
        assert registry.get(spec.name).spec is spec


# -- export ------------------------------------------------------------

def test_dump_and_as_json_round_trip():
    registry = MetricsRegistry(const_labels={"protocol": "lh"})
    counter = registry.counter("test.msgs_total",
                               labels=("node",), unit="messages")
    counter.labels(node="0").inc(2)
    hist = registry.histogram("test.wait_cycles", unit="cycles")
    hist.observe(42.0)

    dump = registry.dump()
    assert dump["const_labels"] == {"protocol": "lh"}
    by_name = {m["name"]: m for m in dump["metrics"]}
    msgs = by_name["test.msgs_total"]
    # Values only: a metric's words are its spec's.
    assert set(msgs) == {"name", "total", "series"}
    assert msgs["total"] == 2
    assert msgs["series"] == [{"labels": {"node": "0"}, "value": 2}]
    wait = by_name["test.wait_cycles"]
    assert wait["series"][0]["count"] == 1
    assert wait["series"][0]["sum"] == 42.0

    parsed = json.loads(registry.as_json())
    assert parsed == dump


def test_every_catalogue_round_trips_through_a_values_only_dump():
    """Every catalogued metric with series (labelled ones out of
    numeric order, histograms in their first, a middle and the
    overflow bucket — integer bounds included) restores from the
    JSON of its dump and re-dumps to the same bytes."""
    from repro.obs import (LAB_CATALOG, MEM_CATALOG,
                           ROBUSTNESS_CATALOG, SERVE_CATALOG)

    registry = MetricsRegistry(const_labels={"app": "jacobi"})
    for catalogue in (CATALOG, ROBUSTNESS_CATALOG, LAB_CATALOG,
                      MEM_CATALOG, SERVE_CATALOG):
        install(registry, catalogue)
    assert set(registry.names()) == set(CATALOG_BY_NAME)
    for name in registry.names():
        metric = registry.get(name)
        spec = metric.spec
        bounds = spec.buckets or DEFAULT_BUCKETS
        for value in ("10", "2", "0"):
            child = metric.labels(**{label: value
                                     for label in spec.labels})
            if spec.kind == HISTOGRAM:
                for observed in (bounds[0], bounds[len(bounds) // 2],
                                 bounds[-1] * 2):
                    child.observe(observed)
            elif spec.kind == GAUGE:
                child.set(0.5)
            else:
                child.inc(int(value) + 0.25)
            if not spec.labels:
                break
    text = json.dumps(registry.dump())
    assert '"4096": 1' in text and '"64": 1' in text
    restored = MetricsRegistry.from_dump(json.loads(text))
    assert json.dumps(restored.dump()) == text
    for name in registry.names():
        assert restored.get(name).spec is CATALOG_BY_NAME[name]
        assert restored.total(name) == registry.total(name)


def test_restoring_an_uncatalogued_metric_raises():
    registry = MetricsRegistry()
    registry.counter("test.hits_total").inc()
    with pytest.raises(MetricError, match="'test.hits_total'"):
        MetricsRegistry.from_dump(registry.dump())


def test_as_text_lists_series_and_skips_empty():
    registry = MetricsRegistry(const_labels={"app": "jacobi"})
    counter = registry.counter("test.msgs_total", labels=("node",),
                               unit="messages")
    counter.labels(node="0").inc(3)
    # A labelled metric nobody touched has no series at all.
    registry.counter("test.unused_total", labels=("node",),
                     unit="things")

    text = registry.as_text()
    assert "run: app=jacobi" in text
    assert "node=0" in text
    assert "(no data)" in text

    trimmed = registry.as_text(skip_empty=True)
    assert "test.unused_total" not in trimmed
    assert "test.msgs_total" in trimmed
