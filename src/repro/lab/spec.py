"""Run specifications and deterministic fingerprinting.

A :class:`RunSpec` is the *complete* description of one simulated run:
application + parameters, protocol, :class:`repro.MachineConfig`
(network, overheads, fault plan, transport tuning, seed), protocol
options, execution knobs, and what the run captures besides its
result (a trace, telemetry windows).  Because the simulator is deterministic
(the cross-process gate in ``tests/properties`` pins this), the spec
fully determines the :class:`repro.RunResult` — which is what makes
content-addressed caching safe.

The cache key is ``sha256(canonical-spec-JSON + code-version)``; the
code version hashes every ``repro`` source file, so *any* change to
the simulator invalidates every cached result (see docs/lab.md for
the invalidation rules).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.core.config import MachineConfig, NetworkConfig
from repro.core.metrics import RunResult, json_safe
from repro.obs import (JsonlSink, MemorySink, Observability,
                       TimeseriesSampler, Tracer)
from repro.obs.timeseries import window_cycles

_code_version_cache: Optional[str] = None


def code_version() -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro``
    package (sorted by relative path).  Computed once per process;
    override with ``REPRO_CODE_VERSION`` to pin or bust caches by
    hand."""
    global _code_version_cache
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    if _code_version_cache is None:
        import repro
        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_version_cache = digest.hexdigest()
    return _code_version_cache


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one simulated run."""

    app: str
    app_params: dict = field(default_factory=dict)
    protocol: str = "lh"
    config: MachineConfig = field(default_factory=MachineConfig)
    protocol_options: Optional[dict] = None
    lock_broadcast: bool = False
    threads_per_proc: int = 1
    max_events: Optional[int] = None
    #: Capture the run's trace events on ``RunResult.trace``.
    trace: bool = False
    #: Sample telemetry windows of this many simulated µs onto
    #: ``RunResult.windows`` (0: no windows).
    window_us: float = 0.0

    def __post_init__(self) -> None:
        if not self.window_us >= 0:
            raise ValueError(
                f"window_us must be >= 0 (0 = no windows), got "
                f"{self.window_us}")
        if self.window_us:
            window_cycles(self.window_us, self.config.cpu_mhz)
        # One spelling per window: 200 and 200.0 are one fingerprint.
        object.__setattr__(self, "window_us", float(self.window_us))

    def to_dict(self) -> dict:
        """Canonical JSON-ready form (``protocol_options=None`` and
        ``{}`` normalize to the same spec).  A capture field appears
        only when set, so an uncaptured spec keeps its fingerprint."""
        data = {
            "app": self.app,
            "app_params": json_safe(dict(self.app_params)),
            "protocol": self.protocol,
            "config": self.config.to_dict(),
            "protocol_options": json_safe(
                dict(self.protocol_options or {})),
            "lock_broadcast": bool(self.lock_broadcast),
            "threads_per_proc": self.threads_per_proc,
            "max_events": self.max_events,
        }
        if self.trace:
            data["trace"] = True
        if self.window_us:
            data["window_us"] = self.window_us
        return data

    @staticmethod
    def from_dict(data: dict) -> "RunSpec":
        return RunSpec(
            app=data["app"],
            app_params=dict(data.get("app_params", {})),
            protocol=data.get("protocol", "lh"),
            config=MachineConfig.from_dict(data["config"]),
            protocol_options=dict(data["protocol_options"])
                if data.get("protocol_options") else None,
            lock_broadcast=data.get("lock_broadcast", False),
            threads_per_proc=data.get("threads_per_proc", 1),
            max_events=data.get("max_events"),
            trace=data.get("trace", False),
            window_us=data.get("window_us", 0.0),
        )

    def canonical(self) -> str:
        """Canonical JSON: sorted keys, no whitespace variance."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def fingerprint(self, version: Optional[str] = None) -> str:
        """Content address of this run under the given (default:
        current) code version."""
        payload = (self.canonical() + "\0"
                   + (version if version is not None
                      else code_version()))
        return hashlib.sha256(payload.encode()).hexdigest()

    def baseline(self) -> "RunSpec":
        """The speedup denominator: this application, parameters and
        machine on one processor, single-threaded under ``lh``, on the
        default network.  A one-processor run sends no message, so
        cells that differ only in protocol or network share one
        baseline (one fingerprint: the lab simulates it once)."""
        return RunSpec(self.app, self.app_params,
                       config=self.config.replace(
                           nprocs=1, network=NetworkConfig.atm()))

    def label(self) -> str:
        """Short human-readable tag for progress lines and errors."""
        return (f"{self.app}/{self.protocol}"
                f"@{self.config.nprocs}p/{self.config.network.kind}")


def execute_spec(spec: RunSpec,
                 trace_path: Optional[str] = None) -> RunResult:
    """Run one spec in this process (the lab's pool workers and its
    ``jobs=None`` mode both land here), with the captures it asks
    for: ``spec.trace`` fills ``RunResult.trace``, ``spec.window_us``
    ``RunResult.windows``.

    ``trace_path`` streams the trace to a JSONL file instead (gzipped
    for ``.gz`` paths), closed when the run ends; it is not part of
    the spec, so the result is the untraced run's."""
    from repro.apps import create_app
    from repro.core.runner import run_app

    if trace_path is not None:
        if spec.trace:
            raise ValueError("a traced spec captures its own trace; "
                             "pass trace_path for an untraced one")
        sink = JsonlSink(str(trace_path))
    else:
        sink = MemorySink() if spec.trace else None
    obs = None
    if sink is not None:
        obs = Observability(tracer=Tracer(sink))
    sampler = (TimeseriesSampler(spec.window_us) if spec.window_us
               else None)
    try:
        result = run_app(create_app(spec.app, **spec.app_params),
                         spec.config, protocol=spec.protocol,
                         max_events=spec.max_events,
                         protocol_options=spec.protocol_options,
                         lock_broadcast=spec.lock_broadcast,
                         obs=obs, sampler=sampler,
                         threads_per_proc=spec.threads_per_proc)
    finally:
        if trace_path is not None:
            sink.close()
    if spec.trace:
        result.trace = [event.to_record() for event in sink.events]
    if sampler is not None:
        result.windows = sampler.windows
    return result
