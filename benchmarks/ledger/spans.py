"""Roll one traced repetition's profile up into a per-layer span table.

The traced run sits under the interpreter's profile hook (stdlib
``cProfile``), so every Python and C call is seen — generator
resumes, functions bound by name at import, the six inlined dispatch
loops — and no program object is patched.  A *span* here is one
function's aggregate: calls, self time, cumulative time, and who
called it.  This module turns the raw ``pstats`` table into:

- per-layer self time, share and call count, where a layer is a
  ``src/repro`` package (``net/transport.py`` is its own layer,
  ``transport``, because it only runs when faults are on);
- caller-layer -> callee-layer edge totals (calls and cumulative
  seconds crossing each boundary);
- calls and cumulative time of the named boundary functions.

Per-call hook cost inflates layers made of many tiny calls, so shares
rank layers; they are not absolute times (README.md).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: ``stdlib`` is everything outside the eleven named layers:
#: builtins, heapq, numpy, and the thin lab/analysis glue around a
#: run.
LAYERS: Tuple[str, ...] = (
    "sim", "net", "transport", "mem", "sync", "protocols", "core",
    "apps", "serve", "obs", "faults", "stdlib")

#: Boundary functions reported per call: metric stem -> (path inside
#: ``repro/`` it is defined under, function name).  A stem whose
#: function has several definitions (``grant_payload`` is overridden
#: per protocol family) reports the definition with the largest
#: cumulative time, i.e. the outermost one that ran.
BOUNDARIES: Dict[str, Tuple[str, str]] = {
    "protocols.seal_interval": ("protocols/", "seal_interval"),
    "protocols.incorporate_records":
        ("protocols/", "incorporate_records"),
    "protocols.grant_payload": ("protocols/", "grant_payload"),
    "protocols.due_notices": ("protocols/", "due_notices"),
    "protocols.apply_pending": ("protocols/", "apply_pending"),
    "mem.diff_from_ranges": ("mem/diffs.py", "from_ranges"),
    "mem.diff_apply": ("mem/diffs.py", "apply"),
    "mem.encode_diff": ("mem/wire.py", "encode_diff"),
    "mem.make_twin": ("mem/pages.py", "make_twin"),
    "mem.records_after": ("mem/intervals.py", "records_after"),
    "net.transmit": ("net/base.py", "transmit"),
    "transport.send": ("net/transport.py", "send"),
    "core.deliver": ("core/node.py", "deliver"),
    "sync.lock_handle": ("sync/locks.py", "handle"),
}

#: Rows kept in the written span table (by self time).
TOP_FUNCTIONS = 120


def _repro_tail(filename: str) -> Optional[str]:
    """Path below the ``repro`` package, or None for code outside."""
    path = filename.replace("\\", "/")
    if "/repro/" not in path:
        return None
    return path.rsplit("/repro/", 1)[1]


def layer_of(filename: str) -> str:
    """Layer a profiled function's file belongs to."""
    tail = _repro_tail(filename)
    if tail is None:
        return "stdlib"
    if tail == "net/transport.py":
        return "transport"
    head = tail.split("/", 1)[0]
    return head if head in LAYERS else "stdlib"


def span_table(stats: dict) -> dict:
    """Aggregate ``pstats.Stats(...).stats`` — ``{(file, line, func):
    (primitive calls, calls, self s, cumulative s, callers)}`` — into
    the table ``trace_<workload>.json`` holds."""
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    edges: Dict[str, Dict[str, float]] = {}
    boundaries = {name: {"calls": 0, "cum_s": 0.0}
                  for name in BOUNDARIES}
    functions = []
    for (filename, line, func), (_prim, calls, self_s, cum_s,
                                 callers) in stats.items():
        layer = layer_of(filename)
        layers[layer]["self_s"] += self_s
        layers[layer]["calls"] += calls
        tail = _repro_tail(filename)
        where = (f"repro/{tail}:{line}" if tail is not None
                 else filename.rsplit("/", 1)[-1])
        functions.append({"function": f"{where}({func})",
                          "layer": layer, "calls": calls,
                          "self_s": self_s, "cum_s": cum_s})
        for (caller_file, _l, _f), (edge_calls, _p, _self,
                                    edge_cum) in callers.items():
            caller = layer_of(caller_file)
            if caller != layer:
                edge = edges.setdefault(f"{caller}->{layer}",
                                        {"calls": 0, "cum_s": 0.0})
                edge["calls"] += edge_calls
                edge["cum_s"] += edge_cum
        if tail is not None:
            for name, (prefix, wanted) in BOUNDARIES.items():
                if (func == wanted and tail.startswith(prefix)
                        and cum_s >= boundaries[name]["cum_s"]):
                    boundaries[name] = {"calls": calls,
                                        "cum_s": cum_s}
    total = sum(entry["self_s"] for entry in layers.values())
    for entry in layers.values():
        entry["self_share"] = (entry["self_s"] / total
                               if total > 0 else 0.0)
    functions.sort(key=lambda row: row["self_s"], reverse=True)
    return {"total_self_s": total, "layers": layers,
            "edges": dict(sorted(edges.items())),
            "boundaries": boundaries,
            "functions": functions[:TOP_FUNCTIONS]}


def layer_metrics(table: dict) -> Dict[str, float]:
    """The per-layer metrics one span table yields."""
    out: Dict[str, float] = {}
    for layer, entry in table["layers"].items():
        out[f"{layer}.self_share"] = entry["self_share"]
        out[f"{layer}.calls"] = entry["calls"]
    for name, entry in table["boundaries"].items():
        calls = entry["calls"]
        out[f"{name}.calls"] = calls
        out[f"{name}.cum_us_per_call"] = (
            entry["cum_s"] / calls * 1e6 if calls else 0.0)
    return out
