"""Profiling-guided hot-path analysis behind ``repro profile``.

Two complementary attributions of one simulated run
(docs/performance.md):

- **host-time** — where the *simulator's* Python cycles go, from
  cProfile, rolled up per subsystem (``repro.sim``, ``repro.mem``,
  ``repro.protocols``, ...) plus the classic top-N function table.
  This is what the hot-path optimization work steers by.
- **simulated-time** — where the *modelled machine's* cycles go, from
  the run's ``repro.obs`` metrics (:meth:`repro.RunResult.
  time_breakdown`: compute / lock wait / barrier wait / miss wait /
  overhead).  This is the paper's section 6.2 accounting and is
  byte-identical whether or not the profiler is attached.

Profiling is a side effect of simulating, so ``repro profile`` always
executes in-process and never touches the lab cache.
"""

from __future__ import annotations

import cProfile
import inspect
import pstats
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.metrics import RunResult
from repro.lab.spec import RunSpec, execute_spec
from repro.mem.intervals import DiffStore

#: Subpackages host time is rolled up into; anything else inside
#: ``repro`` (cli, __init__, ...) lands in ``repro (other)`` and
#: everything outside the package in ``stdlib/other``.
SUBSYSTEMS = ("sim", "mem", "protocols", "net", "sync", "core",
              "apps", "obs", "lab", "analysis", "faults", "trace")

#: Protocol-time buckets: host self-time inside ``repro.mem`` /
#: ``repro.protocols`` split by *what kind* of consistency work it is.
#: This is the axis the hot-path work steers by — is a slow run paying
#: for interval bookkeeping (log maintenance, write-notice handling,
#: GC), for diff machinery (creation, RDIF encode/decode, application,
#: the diff store), or for vector-clock arithmetic?
PROTOCOL_BUCKETS = ("interval-bookkeeping", "diff", "vector-clock",
                    "protocol (other)")

#: Source lines of :class:`~repro.mem.intervals.DiffStore` inside
#: ``repro/mem/intervals.py``, which also holds the interval log.
#: pstats keys carry no class name, and both classes define ``get``,
#: so the file is split by line.
_source, _first = inspect.getsourcelines(DiffStore)
_DIFFSTORE_LINES = range(_first, _first + len(_source))
del _source, _first

#: Function-name fragments that classify ``repro.protocols`` code.
#: Checked in order; first hit wins.
_PROTO_FUNC_HINTS = (
    ("diff", "diff"),
    ("interval", "interval-bookkeeping"),
    ("incorporate", "interval-bookkeeping"),
    ("notice", "interval-bookkeeping"),
    ("garbage", "interval-bookkeeping"),
    ("gc", "interval-bookkeeping"),
    ("clock", "vector-clock"),
    ("vc", "vector-clock"),
)


def _protocol_bucket(filename: str, line: int,
                     func: str) -> Optional[str]:
    """Bucket for one profiled function (a pstats ``(file, line,
    function)`` key), or ``None`` when it is not protocol work
    (simulator, network, apps, ...).  File-based where a file is
    single-purpose, line- or name-based inside the mixed files."""
    path = filename.replace("\\", "/")
    if "/repro/" not in path:
        return None
    tail = path.rsplit("/repro/", 1)[1]
    if tail.startswith("mem/"):
        module = tail.split("/", 1)[1]
        if module == "timestamps.py":
            return "vector-clock"
        if module in ("diffs.py", "wire.py"):
            return "diff"
        if module == "intervals.py":
            return ("diff" if line in _DIFFSTORE_LINES
                    else "interval-bookkeeping")
        return "interval-bookkeeping" if module == "copyset.py" \
            else "protocol (other)"
    if tail.startswith("protocols/"):
        lowered = func.lower()
        for fragment, bucket in _PROTO_FUNC_HINTS:
            if fragment in lowered:
                return bucket
        return "protocol (other)"
    return None


@dataclass
class Hotspot:
    """One row of the top-N function table."""

    where: str          # file:line(function), repo-relative
    ncalls: int
    tottime: float      # seconds inside the function itself
    cumtime: float      # seconds including callees


@dataclass
class ProfileReport:
    """Everything ``repro profile`` prints, as data."""

    label: str
    wall_seconds: float
    events: int
    events_per_second: float
    #: subsystem -> profiler self-time seconds (descending share).
    subsystem_seconds: Dict[str, float] = field(default_factory=dict)
    #: protocol bucket -> profiler self-time seconds inside the
    #: consistency machinery (see :data:`PROTOCOL_BUCKETS`).
    protocol_seconds: Dict[str, float] = field(default_factory=dict)
    #: activity -> fraction of simulated processor time (repro.obs).
    sim_time_breakdown: Dict[str, float] = field(default_factory=dict)
    hotspots: List[Hotspot] = field(default_factory=list)
    result: Optional[RunResult] = None


def _subsystem_of(filename: str) -> str:
    path = filename.replace("\\", "/")
    if "/repro/" not in path:
        return "stdlib/other"
    tail = path.rsplit("/repro/", 1)[1]
    head = tail.split("/", 1)[0]
    if head.endswith(".py"):
        head = head[:-3]
    return head if head in SUBSYSTEMS else "repro (other)"


def _short_location(filename: str, line: int, func: str) -> str:
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        path = "repro/" + path.rsplit("/repro/", 1)[1]
    else:
        path = path.rsplit("/", 1)[-1]
    return f"{path}:{line}({func})"


def profile_spec(spec: RunSpec, top: int = 15) -> ProfileReport:
    """Execute ``spec`` under cProfile and attribute the cost both
    ways.  The profiled result is the normal, bit-identical
    :class:`RunResult` (the profiler observes; it never steers)."""
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    try:
        result = execute_spec(spec)
    finally:
        profiler.disable()
    wall = time.perf_counter() - started

    events = 0
    if result.registry is not None:
        metric = result.registry.get("sim.events_dispatched_total")
        events = int(metric.labels().value)

    stats = pstats.Stats(profiler)
    subsystems: Dict[str, float] = {}
    protocol: Dict[str, float] = {name: 0.0
                                  for name in PROTOCOL_BUCKETS}
    rows: List[Hotspot] = []
    for (filename, line, func), (_cc, ncalls, tottime, cumtime,
                                 _callers) in stats.stats.items():
        subsystem = _subsystem_of(filename)
        subsystems[subsystem] = subsystems.get(subsystem, 0.0) + tottime
        bucket = _protocol_bucket(filename, line, func)
        if bucket is not None:
            protocol[bucket] += tottime
        rows.append(Hotspot(
            where=_short_location(filename, line, func),
            ncalls=ncalls, tottime=tottime, cumtime=cumtime))
    rows.sort(key=lambda h: h.tottime, reverse=True)
    ordered = dict(sorted(subsystems.items(),
                          key=lambda kv: kv[1], reverse=True))

    return ProfileReport(
        label=spec.label(),
        wall_seconds=wall,
        events=events,
        events_per_second=(events / wall if wall > 0 else 0.0),
        subsystem_seconds=ordered,
        protocol_seconds=protocol,
        sim_time_breakdown=result.time_breakdown(),
        hotspots=rows[:max(0, top)],
        result=result,
    )


def exclusive_shares(breakdown: Dict[str, float]) -> Dict[str, float]:
    """Compute, the three waits and a remainder: slices of
    :meth:`RunResult.time_breakdown` that sum to 100 %.

    ``overhead`` is not a further slice.  Every wait window opens
    before its request is sent, so send overhead, barrier-arrival diff
    creation and the handler cycles charged while the application is
    blocked lie inside a wait; handler cycles that interrupt
    computation land in the remainder."""
    shares = {name: breakdown[name]
              for name in ("compute", "lock_wait", "barrier_wait",
                           "miss_wait")}
    shares["remainder"] = max(0.0, 1.0 - sum(shares.values()))
    return shares


def format_profile(report: ProfileReport, top: int = 15) -> str:
    """Render a report the way ``repro profile`` prints it."""
    lines = [
        f"profile: {report.label} — {report.events:,} events in "
        f"{report.wall_seconds:.2f}s "
        f"({report.events_per_second:,.0f} events/s)",
        "",
        "simulated-time attribution (repro.obs):",
    ]
    if report.sim_time_breakdown:
        exclusive = exclusive_shares(report.sim_time_breakdown)
        lines.append("  " + ", ".join(
            f"{name} {share:.1%}" for name, share in exclusive.items()))
        lines.append(
            f"  overhead {report.sim_time_breakdown['overhead']:.1%} "
            "— overlaps the waits and the remainder (charged while "
            "the application is blocked); not in the sum")
    else:
        lines.append("  (no node metrics)")
    lines += ["", "host-time by subsystem (cProfile self time):"]
    total = sum(report.subsystem_seconds.values()) or 1.0
    for name, seconds in report.subsystem_seconds.items():
        lines.append(f"  {name:<14s} {seconds / total:5.1%}  "
                     f"{seconds:7.3f}s")
    if report.protocol_seconds:
        lines += ["", "protocol-time buckets (cProfile self time in "
                      "repro.mem + repro.protocols):"]
        proto_total = sum(report.protocol_seconds.values()) or 1.0
        for name in PROTOCOL_BUCKETS:
            seconds = report.protocol_seconds.get(name, 0.0)
            lines.append(
                f"  {name:<21s} {seconds / proto_total:5.1%}  "
                f"{seconds:7.3f}s")
    shown = report.hotspots[:max(0, top)]
    lines += ["", f"top {len(shown)} functions by self time:",
              f"  {'ncalls':>9s} {'tottime':>8s} {'cumtime':>8s}  "
              "where"]
    for hot in shown:
        lines.append(f"  {hot.ncalls:9d} {hot.tottime:8.3f} "
                     f"{hot.cumtime:8.3f}  {hot.where}")
    return "\n".join(lines)
