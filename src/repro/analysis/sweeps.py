"""Generic parameter-sweep engine.

Runs the cartesian product of configuration axes over an application
and collects one flat record per run — the machinery behind custom
studies ("what if pages were 2 KB *and* the network 50 Mbit?") that
the fixed table/figure drivers don't cover.  Records export to CSV for
external analysis.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.config import MachineConfig, NetworkConfig
from repro.lab import Lab, RunSpec


@dataclass
class SweepAxis:
    """One swept dimension: a name and its values.  ``apply`` maps a
    value onto (config, run_kwargs, app_kwargs) dictionaries."""

    name: str
    values: Sequence
    target: str = "config"  # "config" | "app" | "run"
    setter: Optional[Callable] = None

    def entries(self):
        return [(self.name, value) for value in self.values]


@dataclass
class SweepRecord:
    """One run's flattened outcome."""

    settings: Dict[str, object]
    elapsed_cycles: float
    speedup: Optional[float]
    messages: int
    sync_messages: int
    data_kbytes: float
    access_misses: int

    def as_row(self) -> Dict[str, object]:
        row = dict(self.settings)
        row.update(elapsed_cycles=self.elapsed_cycles,
                   speedup=self.speedup, messages=self.messages,
                   sync_messages=self.sync_messages,
                   data_kbytes=round(self.data_kbytes, 3),
                   access_misses=self.access_misses)
        return row


class Sweep:
    """Cartesian sweep over machine/app/run parameters of a named
    application: a ``"config"`` axis names a ``MachineConfig`` field
    (or brings a ``setter``), an ``"app"`` axis an application
    parameter, a ``"run"`` axis a :class:`RunSpec` field
    (``protocol``, ``protocol_options``, ``max_events``, ...).

    >>> sweep = Sweep("jacobi", dict(n=64, iterations=3))
    >>> sweep.axis("nprocs", [2, 4, 8])
    >>> sweep.axis("protocol", ["lh", "ei"], target="run")
    >>> records = sweep.run()          # doctest: +SKIP
    """

    def __init__(self, app: str, app_params: Optional[dict] = None,
                 base_config: Optional[MachineConfig] = None,
                 baseline: bool = True) -> None:
        self.app = app
        self.app_params = dict(app_params or {})
        self.base_config = base_config or MachineConfig(
            network=NetworkConfig.atm())
        self.compute_baseline = baseline
        self.axes: List[SweepAxis] = []

    def axis(self, name: str, values: Sequence,
             target: str = "config",
             setter: Optional[Callable] = None) -> "Sweep":
        if target not in ("config", "app", "run"):
            raise ValueError(f"bad axis target {target!r}")
        self.axes.append(SweepAxis(name=name, values=list(values),
                                   target=target, setter=setter))
        return self

    def _resolve(self, settings: Dict[str, object]):
        """One combo's (config, app_kwargs, run_kwargs)."""
        config = self.base_config
        app_kwargs: Dict[str, object] = {}
        run_kwargs: Dict[str, object] = {}
        for axis in self.axes:
            value = settings[axis.name]
            if axis.setter is not None:
                config = axis.setter(config, value)
            elif axis.target == "config":
                config = config.replace(**{axis.name: value})
            elif axis.target == "app":
                app_kwargs[axis.name] = value
            else:
                run_kwargs[axis.name] = value
        return config, app_kwargs, run_kwargs

    def run(self, lab: Optional[Lab] = None) -> List[SweepRecord]:
        """Every cell becomes a :class:`RunSpec`, followed (with
        ``baseline``) by the ``nprocs=1`` run of the same app and
        config, and the grid resolves in one ``run_many`` batch: it
        fans out across cores, repeats hit the cache, and baselines
        shared between cells are simulated once (the lab runs each
        distinct fingerprint of a batch once)."""
        if not self.axes:
            raise ValueError("sweep has no axes")
        if lab is None:
            lab = Lab()
        combos = [dict(combo) for combo in itertools.product(
            *(axis.entries() for axis in self.axes))]
        specs: List[RunSpec] = []
        for settings in combos:
            config, app_kwargs, run_kwargs = self._resolve(settings)
            params = {**self.app_params, **app_kwargs}
            specs.append(RunSpec(self.app, params, config=config,
                                 **run_kwargs))
            if self.compute_baseline:
                specs.append(RunSpec(self.app, params,
                                     config=config.replace(nprocs=1)))
        results = iter(lab.run_many(specs))
        records: List[SweepRecord] = []
        for settings in combos:
            result = next(results)
            baseline = (next(results) if self.compute_baseline
                        else None)
            records.append(SweepRecord(
                settings=settings,
                elapsed_cycles=result.elapsed_cycles,
                speedup=(result.speedup_over(baseline)
                         if baseline is not None else None),
                messages=result.total_messages,
                sync_messages=result.sync_messages,
                data_kbytes=result.data_kbytes,
                access_misses=result.access_misses))
        return records


def to_csv(records: Iterable[SweepRecord],
           path: Optional[str] = None) -> str:
    """Render sweep records as CSV; writes to ``path`` if given."""
    records = list(records)
    if not records:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer,
                            fieldnames=list(records[0].as_row()),
                            lineterminator="\n")
    writer.writeheader()
    for record in records:
        writer.writerow(record.as_row())
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
    return text
