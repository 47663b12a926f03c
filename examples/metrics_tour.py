#!/usr/bin/env python
"""Tour of the repro.obs metrics registry and event tracer.

Runs Jacobi under the lazy hybrid protocol on the 100 Mbit ATM
network with a JSONL trace sink attached, then shows the three ways
to read a run's observability data:

1. registry reads (`registry.total` / `registry.by_label`) — one number;
2. the registry dump (`as_text` / `dump`) — the full stats schema;
3. trace replay (`read_jsonl`) — the per-event timeline.

The schema is documented in docs/observability.md.

Run:  PYTHONPATH=src python examples/metrics_tour.py
"""

import os
import tempfile

from repro import (JsonlSink, MachineConfig, NetworkConfig,
                   Observability, Tracer, read_jsonl, run_app)
from repro.apps import create_app


def main() -> None:
    trace_path = os.path.join(tempfile.gettempdir(),
                              "metrics_tour_trace.jsonl")

    # An Observability context with a real sink replaces the default
    # (free) NullSink tracer; the registry comes along automatically.
    obs = Observability(tracer=Tracer(JsonlSink(trace_path)))
    result = run_app(create_app("jacobi", n=48, iterations=3),
                     MachineConfig(nprocs=4,
                                   network=NetworkConfig.atm()),
                     protocol="lh", obs=obs)
    obs.close()  # flush the JSONL file

    # 1. Single numbers straight off the run's registry.
    registry = result.registry
    print("== headline numbers (registry-backed) ==")
    total = registry.total("dsm.messages_total")
    sync = result.sync_messages
    print(f"messages: {total:.0f} total, {sync:.0f} "
          f"({sync / total:.0%}) for synchronization")
    print(f"data moved: "
          f"{registry.total('dsm.data_bytes_total') / 1024:.1f} KB, "
          f"diffs created: "
          f"{registry.total('dsm.diffs_created_total'):.0f}")

    print("\n== messages by type ==")
    by_type = registry.by_label("dsm.messages_total", "msg_type")
    for msg_type, count in sorted(by_type.items(),
                                  key=lambda kv: -kv[1]):
        print(f"  {msg_type:<16s} {count:6.0f}")

    # 2. The full dump — what `python -m repro stats` prints.
    print("\n== registry dump (non-empty series) ==")
    print(registry.as_text(skip_empty=True))

    # 3. Replay the JSONL trace.
    events = list(read_jsonl(trace_path))
    print(f"\n== trace replay: {len(events)} events "
          f"in {trace_path} ==")
    for event in events[:10]:
        print(f"  t={event.ts:>12.0f}  {event.name:<20s} "
              f"{event.fields}")
    print("  ...")
    # Count event kinds seen across the run.
    kinds = {}
    for event in events:
        kinds[event.name] = kinds.get(event.name, 0) + 1
    for name, count in sorted(kinds.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<20s} x{count}")


if __name__ == "__main__":
    main()
