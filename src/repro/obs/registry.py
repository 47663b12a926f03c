"""Label-aware metrics registry: counters, gauges, histograms.

The hot-path contract is prometheus-style: ``labels(...)`` returns a
*child* that the caller keeps and increments directly, so per-message
emission costs one attribute access and one addition, not a dict walk.
Catalogued names (see :mod:`repro.obs.catalog`) resolve their spec
automatically; an ad-hoc metric supplies its own unit and labels.  A
dump holds values only; the catalogue holds the words.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.catalog import (CATALOG_BY_NAME, COUNTER, GAUGE,
                               HISTOGRAM, MetricSpec)


class MetricError(ValueError):
    """Inconsistent registration or label use."""


#: Default histogram bucket upper bounds (cycles); +inf is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise MetricError(f"counter decrement: {amount}")
        self.value += amount


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def set_max(self, value) -> None:
        if value > self.value:
            self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount


class _HistogramChild:
    __slots__ = ("count", "sum", "min", "max", "bounds", "buckets")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)  # last = +inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None:
            self.min = self.max = value
        elif value < self.min:
            self.min = value
        elif value > self.max:
            self.max = value
        # First bucket with bound >= value — bisect_left on the sorted
        # bounds is the C-speed equivalent of the linear <= scan (the
        # overflow bucket is buckets[len(bounds)]).
        self.buckets[bisect_left(self.bounds, value)] += 1

    def snapshot(self) -> dict:
        return {"count": self.count, "sum": self.sum,
                "min": self.min, "max": self.max,
                "buckets": dict(zip([*map(str, self.bounds), "+inf"],
                                    self.buckets))}


_CHILD_FACTORY = {COUNTER: _CounterChild, GAUGE: _GaugeChild}


def _numeric_first(value: str) -> Tuple:
    """Sort key for one label value: node ids by number ("2" before
    "10"), ahead of any non-numeric value."""
    return (0, int(value), "") if value.isdigit() else (1, 0, value)


class Metric:
    """One named metric holding a child per label-value combination."""

    def __init__(self, spec: MetricSpec) -> None:
        self.spec = spec
        self._buckets = spec.buckets or DEFAULT_BUCKETS
        self._children: Dict[Tuple, object] = {}
        # Expected label names precomputed once: labels() sits on the
        # per-message hot path (docs/performance.md).
        self._label_names = spec.labels
        self._label_set = frozenset(spec.labels)
        self._default = None if spec.labels else self.labels()

    def _make_child(self):
        if self.spec.kind == HISTOGRAM:
            return _HistogramChild(self._buckets)
        return _CHILD_FACTORY[self.spec.kind]()

    def labels(self, **labelvalues):
        """Get (or create) the child for one label-value combination."""
        if set(labelvalues) != self._label_set:
            raise MetricError(
                f"{self.spec.name} takes labels {self._label_names}, "
                f"got {tuple(sorted(labelvalues))}")
        key = tuple(str(labelvalues[name])
                    for name in self._label_names)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    # -- label-free conveniences (delegate to the sole child) ----------

    def _sole(self):
        if self._default is None:
            raise MetricError(
                f"{self.spec.name} is labelled {self.spec.labels}; "
                "use .labels(...)")
        return self._default

    def inc(self, amount=1) -> None:
        self._sole().inc(amount)

    def set(self, value) -> None:
        self._sole().set(value)

    def set_max(self, value) -> None:
        self._sole().set_max(value)

    def observe(self, value) -> None:
        self._sole().observe(value)

    # -- reading -------------------------------------------------------

    def series(self) -> Iterable[Tuple[Dict[str, str], object]]:
        for key, child in self._children.items():
            yield dict(zip(self.spec.labels, key)), child

    def total(self) -> float:
        """Sum of all series (counter/gauge values; histogram sums)."""
        if self.spec.kind == HISTOGRAM:
            return sum(child.sum for child in self._children.values())
        return sum(child.value for child in self._children.values())

    def by_label(self, label: str) -> Dict[str, float]:
        """Totals grouped by one label's values."""
        if label not in self.spec.labels:
            raise MetricError(
                f"{self.spec.name} has no label {label!r}")
        position = self.spec.labels.index(label)
        out: Dict[str, float] = {}
        for key, child in self._children.items():
            value = (child.sum if self.spec.kind == HISTOGRAM
                     else child.value)
            out[key[position]] = out.get(key[position], 0) + value
        return out


class MetricsRegistry:
    """All metrics of one simulated machine run.

    ``const_labels`` describe the whole run (protocol, network, app,
    nprocs) and are reported once in the dump rather than repeated on
    every series.
    """

    def __init__(self,
                 const_labels: Optional[Dict[str, str]] = None) -> None:
        self._metrics: Dict[str, Metric] = {}
        self.const_labels: Dict[str, str] = dict(const_labels or {})

    # -- registration --------------------------------------------------

    def from_spec(self, spec: MetricSpec) -> Metric:
        existing = self._metrics.get(spec.name)
        if existing is not None:
            if existing.spec != spec:
                raise MetricError(
                    f"metric {spec.name} re-registered with a "
                    "different spec")
            return existing
        metric = Metric(spec)
        self._metrics[spec.name] = metric
        return metric

    def _resolve(self, name: str, kind: str, unit: str,
                 labels) -> MetricSpec:
        spec = CATALOG_BY_NAME.get(name)
        if spec is not None:
            if spec.kind != kind:
                raise MetricError(
                    f"{name} is catalogued as a {spec.kind}, "
                    f"requested as a {kind}")
            return spec
        return MetricSpec(name=name, kind=kind, unit=unit,
                          description="", labels=tuple(labels))

    def counter(self, name: str, *, unit: str = "",
                labels=()) -> Metric:
        return self.from_spec(self._resolve(name, COUNTER, unit,
                                            labels))

    def histogram(self, name: str, *, unit: str = "",
                  labels=()) -> Metric:
        return self.from_spec(self._resolve(name, HISTOGRAM, unit,
                                            labels))

    # -- reading -------------------------------------------------------

    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise MetricError(f"no metric named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def total(self, name: str) -> float:
        return self.get(name).total()

    def by_label(self, name: str, label: str) -> Dict[str, float]:
        return self.get(name).by_label(label)

    # -- restoring (repro.lab result cache) ----------------------------

    @classmethod
    def from_dump(cls, data: dict) -> "MetricsRegistry":
        """Rebuild a readable registry from :meth:`dump` output, so a
        cached :class:`repro.RunResult` answers :meth:`total` /
        :meth:`by_label` exactly like the live run did.

        :meth:`dump` sorts series by label *string* ("0", "1", "10",
        "2"); they are re-inserted in numeric label order instead,
        which is the order :class:`repro.obs.NodeInstruments` creates
        them on a live run, so a float :meth:`total` adds in the live
        run's order and comes out bit-identical.  Re-dumping the
        restored registry reproduces ``data`` (the round-trip tests
        over the ``tests/perf`` goldens pin this).

        Each metric's kind, labels and buckets come from
        :data:`~repro.obs.catalog.CATALOG_BY_NAME`; a name the
        catalogue does not hold raises :class:`MetricError`."""
        registry = cls(const_labels=data.get("const_labels"))
        for entry in data.get("metrics", ()):
            spec = CATALOG_BY_NAME.get(entry["name"])
            if spec is None:
                raise MetricError(
                    f"uncatalogued metric {entry['name']!r} in dump")
            metric = registry.from_spec(spec)
            names = spec.labels
            for series in sorted(entry["series"], key=lambda s: [
                    _numeric_first(s["labels"][name]) for name in names]):
                child = metric.labels(**series["labels"])
                if spec.kind == HISTOGRAM:
                    child.count = series["count"]
                    child.sum = series["sum"]
                    child.min = series["min"]
                    child.max = series["max"]
                    child.buckets = [
                        series["buckets"][bound]
                        for bound in (*map(str, child.bounds),
                                      "+inf")]
                else:
                    child.value = series["value"]
        return registry

    # -- export --------------------------------------------------------

    def dump(self) -> dict:
        """The stats schema: const labels + every metric's name,
        total and series (see docs/observability.md).  A metric's
        words (kind, unit, description, labels) are its spec's, not
        the dump's."""
        metrics = []
        for name in self.names():
            metric = self._metrics[name]
            spec = metric.spec
            series = []
            for labelvalues, child in metric.series():
                # Sorted label keys keep the dump canonical: identical
                # bytes whether it comes from a live run or back off
                # the lab cache (which stores JSON with sorted keys).
                labelvalues = dict(sorted(labelvalues.items()))
                if spec.kind == HISTOGRAM:
                    entry = {"labels": labelvalues,
                             **child.snapshot()}
                else:
                    entry = {"labels": labelvalues,
                             "value": child.value}
                series.append(entry)
            series.sort(key=lambda e: sorted(e["labels"].items()))
            metrics.append({"name": name, "total": metric.total(),
                            "series": series})
        return {"const_labels": dict(sorted(self.const_labels.items())),
                "metrics": metrics}

    def as_json(self, indent: int = 2) -> str:
        return json.dumps(self.dump(), indent=indent, sort_keys=False)

    def as_text(self, skip_empty: bool = False) -> str:
        """Human-readable table: one line per series."""
        lines = []
        if self.const_labels:
            context = ", ".join(f"{k}={v}" for k, v
                                in sorted(self.const_labels.items()))
            lines.append(f"run: {context}")
        header = f"{'metric':<38s} {'labels':<36s} {'value':>14s} unit"
        lines.append(header)
        lines.append("-" * len(header))
        for name in self.names():
            metric = self._metrics[name]
            spec = metric.spec
            rows = list(metric.series())
            if not rows:
                if not skip_empty:
                    lines.append(f"{name:<38s} {'-':<36s} "
                                 f"{'(no data)':>14s} {spec.unit}")
                continue
            rows.sort(key=lambda item: tuple(item[0].values()))
            for labelvalues, child in rows:
                label_text = ",".join(
                    f"{k}={v}" for k, v in labelvalues.items()) or "-"
                if spec.kind == HISTOGRAM:
                    value_text = (f"n={child.count} "
                                  f"sum={child.sum:.0f}")
                else:
                    value = child.value
                    value_text = (f"{value:.0f}"
                                  if isinstance(value, float)
                                  else str(value))
                lines.append(f"{name:<38s} {label_text:<36s} "
                             f"{value_text:>14s} {spec.unit}")
        return "\n".join(lines)
